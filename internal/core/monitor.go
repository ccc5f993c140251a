// Package core implements the database-server side of the safe-region
// monitoring framework (Sections 3-6 of Hu, Xu & Lee, SIGMOD 2005): the
// object index over safe regions, the grid query index over quarantine
// areas, query evaluation and incremental reevaluation with lazy probes, and
// safe-region computation.
//
// The Monitor processes three kinds of requests, mirroring Algorithm 1:
// query registration/deregistration, and source-initiated location updates.
// During processing it may probe objects through the Prober for
// server-initiated location updates. All calls are serialized by design
// (Section 3 assumes the server handles updates sequentially); the Monitor
// is not safe for concurrent use.
package core

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"time"

	"srb/internal/geom"
	"srb/internal/gridindex"
	"srb/internal/obs"
	"srb/internal/query"
	"srb/internal/rtree"
)

// Prober supplies the exact current location of an object on a
// server-initiated probe (step 2 in Figure 3.1).
type Prober interface {
	Probe(id uint64) geom.Point
}

// ProberFunc adapts a function to the Prober interface.
type ProberFunc func(id uint64) geom.Point

// Probe implements Prober.
func (f ProberFunc) Probe(id uint64) geom.Point { return f(id) }

// ResultUpdate reports a changed query result to the application server. For
// aggregate COUNT queries only Count is populated; for all other queries
// Results carries the member IDs (ordered for order-sensitive kNN).
type ResultUpdate struct {
	Query   query.ID
	Results []uint64
	Count   int
}

// SafeRegionUpdate carries a recomputed safe region back to a mobile client
// (step 5 in Figure 3.1). Probed reports whether the refresh was triggered by
// a server-initiated probe rather than the client's own update.
type SafeRegionUpdate struct {
	Object uint64
	Region geom.Rect
	Probed bool
}

// Options configures a Monitor.
type Options struct {
	// Space is the monitored region; objects and queries live inside it.
	Space geom.Rect
	// GridM is the query-index resolution M (Section 3.3). Default 50.
	GridM int
	// TreeCapacity is the R*-tree node capacity. Default 16.
	TreeCapacity int
	// MaxSpeed, when positive, enables the reachability-circle enhancement
	// (Section 6.1): object positions are additionally bounded by a circle of
	// radius MaxSpeed·(now − lastUpdate) around the last reported location.
	MaxSpeed float64
	// Steadiness is the steady-movement parameter D of Section 6.2. When
	// positive, safe regions are optimized under the weighted perimeter.
	Steadiness float64
	// DisableBatchRange disables the batch range safe-region computation of
	// Section 5.3, falling back to per-query strip intersection.
	DisableBatchRange bool
	// GreedyBatch forces the paper's greedy union in the batch computation
	// instead of the exact combination search (ablation).
	GreedyBatch bool
	// EagerProbes disables the lazy-probe technique of Section 4 (ablation):
	// every safe-region object popped during kNN evaluation is probed
	// immediately instead of being held until a probe becomes mandatory.
	EagerProbes bool
	// CellNeighborhood enlarges the area safe regions may span to the
	// (2r+1)×(2r+1) block of grid cells around the object (the adaptive-cell
	// extension the paper sketches in Section 7.4). 0 confines safe regions
	// to a single cell as in the base framework; 1 (a 3×3 block) trades a
	// little safe-region CPU for substantially fewer cell-crossing updates.
	CellNeighborhood int
}

// WithDefaults returns the options as the Monitor will actually use them,
// with zero values replaced by defaults (unit space, GridM 50, TreeCapacity
// 16). Components that must agree with the monitor's effective geometry
// normalize through this before deriving anything from Space or GridM.
func (o Options) WithDefaults() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if !o.Space.IsValid() || o.Space.Area() == 0 {
		o.Space = geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	}
	if o.GridM <= 0 {
		o.GridM = 50
	}
	if o.TreeCapacity <= 0 {
		o.TreeCapacity = 16
	}
	return o
}

// Stats counts the work performed by the Monitor, the basis of the cost
// metrics in Section 7.
type Stats struct {
	SourceUpdates    int64    // client-initiated location updates processed
	Probes           int64    // server-initiated probes issued
	Reevaluations    int64    // incremental query reevaluations
	FullReevals      int64    // reevaluations that fell back to from-scratch
	NewQueryEvals    int64    // from-scratch evaluations of new queries
	SafeRegionsBuilt int64    // full safe-region computations
	ResultChanges    int64    // result updates pushed to application servers
	ProbesAvoided    int64    // range-query ambiguities resolved without a probe
	VirtualProbes    int64    // reachability-circle safe-region shrinks (§6.1)
	KNNCases         [3]int64 // order-sensitive kNN reevaluations by §4.3 case: leave, enter, reorder
}

type objectState struct {
	id       uint64
	lastLoc  geom.Point // last reported or probed location p_lst
	prevLoc  geom.Point // the report before that (steady-movement heading)
	lastTime float64    // timestamp of the last location report
	safe     geom.Rect  // current safe region, mirrored in the object index
}

// Monitor is the database server of Figure 3.1.
type Monitor struct {
	opt     Options
	objects map[uint64]*objectState
	// tree is the R*-tree over safe regions. Its shape depends on insertion
	// history (a population added before the first query is STR-packed, and
	// LoadSnapshot and ReplayJournal rebuild a differently shaped one), so
	// nothing observable may depend on it: DESIGN.md §14.
	tree    *rtree.Tree
	grid    *gridindex.Grid
	queries map[query.ID]*query.Query
	// resultOf is the reverse result index: for each object, the queries it
	// currently appears in. It repairs states the quarantine test cannot see
	// (e.g. a result object drifting outside a shrunken quarantine circle):
	// every update from a result object reevaluates its queries.
	resultOf map[uint64]map[query.ID]bool
	prober   Prober
	report   func(ResultUpdate)
	now      float64
	stats    Stats

	// probedNow tracks objects probed during the current operation: their
	// authoritative representation is an exact point until their safe region
	// is recomputed at the end of the operation. probedFrom records each
	// probed object's previous reported location, because a probe is itself a
	// location update (the paper's "server-initiated probe and update") and
	// the movement it reveals can change other queries' results.
	probedNow  map[uint64]geom.Point
	probedFrom map[uint64]geom.Point
	// probed lists the keys of probedNow in the order the operation added
	// them (probedFrom's keys are among them). The walks over those maps and
	// their draining at the end of the operation go through this list, so
	// they cost the operation's size, not the maps' capacity.
	probed []uint64
	// shrunk lists the objects whose safe region was durably shrunk by a
	// reachability-circle "virtual probe" during the current operation, an ID
	// once per shrink; the shrunken regions must be pushed to the clients at
	// the end of the operation so the update protocol stays exact.
	shrunk []uint64

	// pq, held and seeded are the best-first search's scratch (evaluate.go),
	// reused by every kNN search so that searching allocates only its result.
	pq     evalPQ
	held   []pqItem
	seeded []uint64

	// Per-operation scratch of the serial path, reused by every op so that a
	// steady-state Update allocates only the slice it returns. None of it
	// may be touched by PlanUpdate, which runs on many goroutines at once.
	// affected holds the current grid lookup, ids the sorted object IDs being
	// walked (settleProbes, finishOp), qids the sorted query IDs being
	// repaired (reevalResultQueries, RemoveObject), and before reevaluate's
	// copy of the result list (reevaluate never re-enters itself).
	affected []*query.Query
	ids      []uint64
	qids     []query.ID
	before   []uint64

	// mobs holds the bound observability instruments (obs.go); nil when
	// uninstrumented, which keeps every hook to a single branch.
	mobs *monObs

	// Slow-op log configuration (SetSlowOpLog); only consulted while an obs
	// sink is attached, since operation timing exists only then.
	slowThresh time.Duration
	slowW      io.Writer

	// opTrace is the causal trace ID of the wire op currently being processed
	// (SetOpTrace); 0 outside a traced op. Never part of monitor semantics —
	// it only tags diagnostics (the events recorded into the ring).
	opTrace uint64
}

// New creates a Monitor. prober must not be nil; onUpdate may be nil when the
// caller polls results instead of subscribing.
func New(opt Options, prober Prober, onUpdate func(ResultUpdate)) *Monitor {
	if prober == nil {
		panic("core: nil prober")
	}
	opt = opt.withDefaults()
	return &Monitor{
		opt:        opt,
		objects:    make(map[uint64]*objectState),
		tree:       rtree.NewWithCapacity(opt.TreeCapacity),
		grid:       gridindex.New(opt.GridM, opt.Space),
		queries:    make(map[query.ID]*query.Query),
		resultOf:   make(map[uint64]map[query.ID]bool),
		prober:     prober,
		report:     onUpdate,
		probedNow:  make(map[uint64]geom.Point),
		probedFrom: make(map[uint64]geom.Point),
	}
}

// SetTime advances the server's logical clock, used by the reachability
// circle and recorded as the timestamp of subsequent location reports.
func (m *Monitor) SetTime(t float64) { m.now = t }

// Now returns the server's logical clock.
func (m *Monitor) Now() float64 { return m.now }

// Stats returns a copy of the work counters.
func (m *Monitor) Stats() Stats { return m.stats }

// NumObjects returns the number of registered objects.
func (m *Monitor) NumObjects() int { return len(m.objects) }

// NumQueries returns the number of registered queries.
func (m *Monitor) NumQueries() int { return len(m.queries) }

// Queries returns the registered query for an ID.
func (m *Monitor) Query(id query.ID) (*query.Query, bool) {
	q, ok := m.queries[id]
	return q, ok
}

// Results returns the current monitored results of a query.
func (m *Monitor) Results(id query.ID) ([]uint64, bool) {
	q, ok := m.queries[id]
	if !ok {
		return nil, false
	}
	return append([]uint64(nil), q.Results...), true
}

// SafeRegion returns the current safe region of an object.
func (m *Monitor) SafeRegion(id uint64) (geom.Rect, bool) {
	st, ok := m.objects[id]
	if !ok {
		return geom.Rect{}, false
	}
	return st.safe, true
}

// ObjectIDs returns the registered object IDs in ascending order.
func (m *Monitor) ObjectIDs() []uint64 {
	return m.sortedObjectIDs()
}

// QueryIDs returns the registered query IDs in ascending order.
func (m *Monitor) QueryIDs() []query.ID {
	return m.sortedQueryIDs()
}

// LastReported returns the last location the server has on file for id.
func (m *Monitor) LastReported(id uint64) (geom.Point, bool) {
	st, ok := m.objects[id]
	if !ok {
		return geom.Point{}, false
	}
	return st.lastLoc, true
}

// AddObject registers a moving object at p and returns its initial safe
// region together with safe-region refreshes for any object probed while
// folding the newcomer into existing query results.
func (m *Monitor) AddObject(id uint64, p geom.Point) []SafeRegionUpdate {
	if _, ok := m.objects[id]; ok {
		return m.Update(id, p)
	}
	var t0 time.Time
	var before Stats
	if m.mobs != nil {
		t0, before = m.obsStart()
	}
	st := &objectState{id: id, lastLoc: p, prevLoc: p, lastTime: m.now}
	m.objects[id] = st
	st.safe = geom.RectAround(p)
	m.tree.Insert(id, st.safe)
	// A new object can change results of queries whose quarantine contains p.
	for _, q := range m.grid.At(p) {
		if q.InQuarantine(p) || (q.Kind == query.KindKNN && len(q.Results) < q.K) {
			m.reevaluate(q, st, infinitePoint())
		}
	}
	out := m.finishOp(st)
	if m.mobs != nil {
		m.mobs.done(m, obs.KindCoreAdd, m.mobs.addSeconds, t0, before)
	}
	m.assertInvariants()
	return out
}

// RemoveObject deregisters an object, repairing the results of every query
// it currently appears in. It returns safe-region refreshes for objects
// probed during the repairs.
func (m *Monitor) RemoveObject(id uint64) []SafeRegionUpdate {
	if _, ok := m.objects[id]; !ok {
		return nil
	}
	var t0 time.Time
	var before Stats
	if m.mobs != nil {
		t0, before = m.obsStart()
	}
	m.tree.Delete(id)
	delete(m.objects, id)
	// Only the queries holding id need repair, and resultOf lists exactly
	// those. The repairs delete from that set, so walk a sorted copy.
	qids := m.qids[:0]
	for qid := range m.resultOf[id] {
		qids = append(qids, qid)
	}
	slices.Sort(qids)
	m.qids = qids
	for _, qid := range qids {
		q := m.queries[qid]
		if !q.InResult[id] {
			continue
		}
		// Focus the ledger on the query under repair so refill probes bill it.
		if m.mobs != nil {
			m.mobs.lg.focus(q)
		}
		switch q.Kind {
		case query.KindRange, query.KindCircle:
			m.removeResultID(q, id)
			m.publish(q)
		case query.KindKNN:
			m.removeResultID(q, id)
			m.refillKNN(q)
			m.publish(q)
			m.grid.Update(q)
		}
		if m.mobs != nil {
			m.mobs.lg.unfocus()
		}
	}
	delete(m.resultOf, id)
	out := m.finishOp(nil)
	if m.mobs != nil {
		m.mobs.done(m, obs.KindCoreRemove, m.mobs.remSeconds, t0, before)
	}
	m.assertInvariants()
	return out
}

func (m *Monitor) sortedQueryIDs() []query.ID {
	ids := make([]query.ID, 0, len(m.queries))
	for id := range m.queries {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// appendProbedIDs appends the IDs probed in this operation to dst in
// ascending order.
func (m *Monitor) appendProbedIDs(dst []uint64) []uint64 {
	n := len(dst)
	dst = append(dst, m.probed...)
	slices.Sort(dst[n:])
	return dst
}

// setExact represents id by the exact point p for the rest of the operation.
// id must not be in probedNow yet.
func (m *Monitor) setExact(id uint64, p geom.Point) {
	m.probedNow[id] = p
	m.probed = append(m.probed, id)
}

// maxKeptOpSet bounds the per-op maps the monitor keeps between operations.
// A map one large operation (a registration probing hundreds of objects) grew
// past this is dropped rather than holding that much memory for good.
const maxKeptOpSet = 256

// drained returns mp emptied for reuse by the next operation, given keys,
// a list holding every key in it.
func drained[V any](mp map[uint64]V, keys []uint64) map[uint64]V {
	if len(mp) > maxKeptOpSet {
		return make(map[uint64]V) //lint:allow allochot rare: only after an op touched more than maxKeptOpSet objects
	}
	for _, id := range keys {
		delete(mp, id)
	}
	return mp
}

// endOp drains the per-operation probe bookkeeping once an operation has
// pushed every refreshed region.
func (m *Monitor) endOp() {
	m.probedNow = drained(m.probedNow, m.probed)
	m.probedFrom = drained(m.probedFrom, m.probed)
	m.probed, m.shrunk = m.probed[:0], m.shrunk[:0]
}

// settleProbes treats each probe as the location update it is: the probed
// object's movement from its previous report can change the results of other
// queries (e.g. it crossed a range boundary while the transition would
// otherwise be consumed silently). Reevaluations here may probe further
// objects, so the loop drains until quiescent. skip excludes a query whose
// own evaluation is still in progress.
func (m *Monitor) settleProbes(primary *objectState, skip *query.Query) {
	if len(m.probedFrom) == 0 {
		return // nothing was probed: no movement to settle
	}
	// Each round settles, in ID order, the objects probed since the previous
	// round began: m.probed[done:], as probes only append to it. The primary
	// object has no movement to settle here; an Update's is in m.probed
	// without having been probed.
	for done := 0; done < len(m.probed); {
		todo := m.ids[:0]
		for _, id := range m.probed[done:] {
			if primary == nil || id != primary.id {
				todo = append(todo, id)
			}
		}
		done = len(m.probed)
		slices.Sort(todo)
		m.ids = todo
		for _, id := range todo {
			st := m.objects[id]
			if st == nil {
				continue
			}
			from := m.probedFrom[id]
			m.affected = m.grid.AppendAffected(m.affected[:0], from, st.lastLoc)
			for _, q := range m.affected {
				if q != skip {
					m.reevaluate(q, st, from)
				}
			}
			m.reevalResultQueries(st, from, skip)
		}
	}
}

// reevalResultQueries reevaluates, in ascending ID order, every query st is
// currently a result of that neither the grid lookup in m.affected nor skip
// covered: a result can sit outside a quarantine circle that shrank after its
// safe region was granted, where the quarantine test misses it.
func (m *Monitor) reevalResultQueries(st *objectState, pLst geom.Point, skip *query.Query) {
	set := m.resultOf[st.id]
	if len(set) == 0 {
		return
	}
	qids := m.qids[:0]
	for qid := range set {
		if skip != nil && qid == skip.ID {
			continue
		}
		if _, done := slices.BinarySearchFunc(m.affected, qid, byQueryID); !done {
			qids = append(qids, qid)
		}
	}
	slices.Sort(qids)
	m.qids = qids
	for _, qid := range qids {
		if q := m.queries[qid]; q != nil {
			m.reevaluate(q, st, pLst)
		}
	}
}

// byQueryID orders a query against a query ID, for searching ID-sorted lists.
func byQueryID(q *query.Query, id query.ID) int { return cmp.Compare(q.ID, id) }

// finishOp recomputes the safe region of the primary object st (when non-nil)
// and of every object probed during the operation, mirroring steps 4-5 of
// Figure 3.1, and returns the refreshed regions: the only allocation a
// steady-state operation makes.
func (m *Monitor) finishOp(st *objectState) []SafeRegionUpdate {
	m.settleProbes(st, nil)
	n := len(m.probedNow) + len(m.shrunk)
	if st != nil {
		if _, probed := m.probedNow[st.id]; !probed {
			n++
		}
	}
	var out []SafeRegionUpdate
	if n > 0 {
		out = make([]SafeRegionUpdate, 0, n)
	}
	if st != nil {
		m.recomputeSafeRegion(st)
		out = append(out, SafeRegionUpdate{Object: st.id, Region: st.safe})
		m.noteGrant(st.id)
	}
	m.ids = m.appendProbedIDs(m.ids[:0])
	for _, pid := range m.ids {
		if st != nil && pid == st.id {
			continue
		}
		pst := m.objects[pid]
		if pst == nil {
			continue
		}
		m.recomputeSafeRegion(pst)
		out = append(out, SafeRegionUpdate{Object: pid, Region: pst.safe, Probed: true})
		m.noteGrant(pid)
	}
	out = m.appendShrunk(out, st)
	m.endOp()
	return out
}

// appendShrunk appends the safe regions shrunk by virtual probes
// (reachability circle, Section 6.1) that were not superseded by a real probe
// or by the primary object's recompute. The push keeps the client protocol
// exact: the client resumes reporting against the shrunken region.
func (m *Monitor) appendShrunk(out []SafeRegionUpdate, st *objectState) []SafeRegionUpdate {
	if len(m.shrunk) == 0 {
		return out
	}
	ids := m.ids[:0]
	for _, id := range m.shrunk {
		if _, probed := m.probedNow[id]; probed {
			continue // a real probe already triggered a full refresh
		}
		if st != nil && id == st.id {
			continue
		}
		if m.objects[id] == nil {
			continue
		}
		ids = append(ids, id)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	m.ids = ids
	for _, id := range ids {
		out = append(out, SafeRegionUpdate{Object: id, Region: m.objects[id].safe, Probed: true})
		m.noteGrant(id)
	}
	return out
}

// noteGrant bills a safe-region grant pushed for an object to the query that
// caused the refresh (via the ledger's per-op cause map).
func (m *Monitor) noteGrant(id uint64) {
	if m.mobs != nil {
		m.mobs.lg.noteGrant(id)
	}
}

// probe requests an immediate location update from an object
// (server-initiated probe). The object's representation collapses to an
// exact point for the remainder of the operation.
func (m *Monitor) probe(id uint64) geom.Point {
	if p, ok := m.probedNow[id]; ok {
		return p
	}
	p := m.prober.Probe(id)
	m.stats.Probes++
	m.noteProbe(id)
	st := m.objects[id]
	m.probedFrom[id] = st.lastLoc
	st.prevLoc = st.lastLoc
	st.lastLoc = p
	st.lastTime = m.now
	m.setExact(id, p)
	return p
}

// repr returns the current spatial representation of an object: the exact
// point if it was probed or updated during this operation, otherwise its
// safe region.
func (m *Monitor) repr(id uint64) geom.Rect {
	if p, ok := m.probedNow[id]; ok {
		return geom.RectAround(p)
	}
	return m.objects[id].safe
}

// isExact reports whether the object is currently represented by a point.
func (m *Monitor) isExact(id uint64) bool {
	if _, ok := m.probedNow[id]; ok {
		return true
	}
	st := m.objects[id]
	return st.safe.Width() == 0 && st.safe.Height() == 0
}

// bounds returns [δ, Δ] distance bounds between query point q and object id,
// derived from the object's authoritative representation (exact point after a
// probe, safe region otherwise). These bounds stay valid for as long as the
// object honors its safe region, so they are safe to bake into durable state
// (result order, quarantine radii, rings).
func (m *Monitor) bounds(qp geom.Point, id uint64) (float64, float64) {
	r := m.repr(id)
	return r.MinDist(qp), r.MaxDist(qp)
}

// virtualProbe is the reachability-circle enhancement (Section 6.1) recast as
// a durable operation: instead of merely consulting the circle, the object's
// safe region is shrunk to its intersection with the circle's bounding box
// (which certainly contains the object's true position right now) and the
// shrunken region is pushed to the client at the end of the operation. Any
// decision made against the shrunken region is then protected by the normal
// safe-region protocol. It reports whether the region actually shrank.
func (m *Monitor) virtualProbe(id uint64) bool {
	if m.opt.MaxSpeed <= 0 {
		return false
	}
	if _, probed := m.probedNow[id]; probed {
		return false
	}
	st := m.objects[id]
	rad := m.opt.MaxSpeed * (m.now - st.lastTime)
	if rad < 0 {
		rad = 0
	}
	rb := geom.RectAround(st.lastLoc).Expand(rad)
	if rb.ContainsRect(st.safe) {
		return false // the circle no longer constrains anything
	}
	shr := st.safe.Intersect(rb)
	st.safe = clampSafe(shr, st.lastLoc)
	m.tree.Update(id, st.safe)
	m.shrunk = append(m.shrunk, id)
	m.stats.VirtualProbes++
	m.noteShrink(id)
	return true
}

func (m *Monitor) publish(q *query.Query) {
	m.stats.ResultChanges++
	if m.mobs != nil {
		m.mobs.lg.notePublish(q, len(q.Results), q.Aggregate)
	}
	if m.report == nil {
		return // nobody subscribes: skip building the report
	}
	if q.Aggregate {
		m.report(ResultUpdate{Query: q.ID, Count: len(q.Results)})
		return
	}
	m.report(ResultUpdate{Query: q.ID, Results: append([]uint64(nil), q.Results...), Count: len(q.Results)})
}

// noteResult and unnoteResult maintain the reverse result index alongside a
// query's result list.
func (m *Monitor) noteResult(q *query.Query, id uint64) {
	set := m.resultOf[id]
	if set == nil {
		set = make(map[query.ID]bool, 2)
		m.resultOf[id] = set
	}
	set[q.ID] = true
}

func (m *Monitor) unnoteResult(q *query.Query, id uint64) {
	if set := m.resultOf[id]; set != nil {
		delete(set, q.ID)
		if len(set) == 0 {
			delete(m.resultOf, id)
		}
	}
}

// appendResultID adds id to a query's result list (position pos, or -1 for
// the end), updating the membership and reverse indexes.
func (m *Monitor) appendResultID(q *query.Query, id uint64, pos int) {
	if pos < 0 || pos > len(q.Results) {
		pos = len(q.Results)
	}
	q.Results = append(q.Results, 0)
	copy(q.Results[pos+1:], q.Results[pos:])
	q.Results[pos] = id
	q.InResult[id] = true
	m.noteResult(q, id)
}

// removeResultID removes id from a query's result list, updating both
// indexes.
func (m *Monitor) removeResultID(q *query.Query, id uint64) {
	for i, r := range q.Results {
		if r == id {
			q.Results = append(q.Results[:i], q.Results[i+1:]...)
			break
		}
	}
	delete(q.InResult, id)
	m.unnoteResult(q, id)
}

// setResults replaces a query's whole result list, updating the reverse
// index.
func (m *Monitor) setResults(q *query.Query, ids []uint64) {
	for _, id := range q.Results {
		m.unnoteResult(q, id)
	}
	q.SetResults(ids)
	for _, id := range ids {
		m.noteResult(q, id)
	}
}

// CheckInvariants validates cross-index consistency and the deep semantic
// invariants of the monitoring protocol: the R*-tree mirrors the object
// table, the grid index mirrors the query table (with the exact current
// quarantine bboxes), per-operation probe bookkeeping is drained, safe
// regions contain their object's last location and stay inside the monitored
// space, fixed-shape queries (range, COUNT, within-distance) satisfy
// member-containment and non-member interior-disjointness against their
// quarantine areas, and kNN queries hold exactly min(K, numObjects) results.
// Every violation names the object/query involved and the condition
// violated. Intended for tests and the srbdebug build, which asserts it
// after every mutating operation.
func (m *Monitor) CheckInvariants() error {
	if err := m.tree.CheckInvariants(); err != nil {
		return err
	}
	if err := m.grid.CheckInvariants(); err != nil {
		return err
	}
	if m.tree.Len() != len(m.objects) {
		return fmt.Errorf("tree has %d items, %d objects registered", m.tree.Len(), len(m.objects))
	}
	if m.grid.Len() != len(m.queries) {
		return fmt.Errorf("grid indexes %d queries, %d registered", m.grid.Len(), len(m.queries))
	}
	if n := len(m.probedNow) + len(m.probedFrom) + len(m.probed) + len(m.shrunk); n != 0 {
		return fmt.Errorf("probe bookkeeping not drained between operations: %d probedNow, %d probedFrom, %d probed, %d shrunk",
			len(m.probedNow), len(m.probedFrom), len(m.probed), len(m.shrunk))
	}
	for id, st := range m.objects {
		r, ok := m.tree.Get(id)
		if !ok {
			return fmt.Errorf("object %d missing from tree", id)
		}
		//lint:allow floatcmp identity check: the tree must mirror st.safe bit-for-bit
		if r != st.safe {
			return fmt.Errorf("object %d: tree rect %v != safe %v", id, r, st.safe)
		}
		if !st.safe.Contains(st.lastLoc) {
			return fmt.Errorf("object %d: safe region %v excludes last location %v", id, st.safe, st.lastLoc)
		}
		if !m.opt.Space.Union(geom.RectAround(st.lastLoc)).ContainsRect(st.safe) {
			return fmt.Errorf("object %d: safe region %v escapes space %v beyond last location %v",
				id, st.safe, m.opt.Space, st.lastLoc)
		}
	}
	for id, q := range m.queries {
		if q.ID != id {
			return fmt.Errorf("query map key %d != id %d", id, q.ID)
		}
		if len(q.Results) != len(q.InResult) {
			return fmt.Errorf("query %d: %d results vs %d membership entries", id, len(q.Results), len(q.InResult))
		}
		//lint:allow floatcmp identity check: the grid must index the exact current quarantine bbox
		if ext := m.grid.ExtentOf(id); ext != q.QuarantineBBox() {
			return fmt.Errorf("query %d: grid extent %v != quarantine bbox %v", id, ext, q.QuarantineBBox())
		}
		for _, r := range q.Results {
			if _, ok := m.objects[r]; !ok {
				return fmt.Errorf("query %d references unknown object %d", id, r)
			}
			if !m.resultOf[r][id] {
				return fmt.Errorf("reverse index missing query %d for object %d", id, r)
			}
		}
		switch q.Kind {
		case query.KindKNN:
			want := q.K
			if n := len(m.objects); n < want {
				want = n
			}
			if len(q.Results) != want {
				return fmt.Errorf("kNN query %d: %d results, want min(K=%d, %d objects) = %d",
					id, len(q.Results), q.K, len(m.objects), want)
			}
		case query.KindRange:
			if err := m.checkRangeContainment(q); err != nil {
				return err
			}
		case query.KindCircle:
			if err := m.checkCircleContainment(q); err != nil {
				return err
			}
		}
	}
	// The reverse index must not hold stale entries.
	for oid, set := range m.resultOf {
		for qid := range set {
			q, ok := m.queries[qid]
			if !ok {
				return fmt.Errorf("reverse index references unknown query %d", qid)
			}
			if !q.InResult[oid] {
				return fmt.Errorf("reverse index claims %d in query %d, membership disagrees", oid, qid)
			}
		}
	}
	return nil
}

// checkRangeContainment verifies the fixed-rectangle quarantine invariant
// (Section 3.3): while every result object's safe region lies inside the
// rectangle and every non-result object's safe region avoids its interior,
// the result cannot change without a client report. kNN quarantine circles
// grow and shrink between reevaluations, so the analogous property is
// deliberately not an invariant there.
func (m *Monitor) checkRangeContainment(q *query.Query) error {
	outer := q.Rect.Expand(geom.Epsilon)
	for id, st := range m.objects {
		if q.InResult[id] {
			if !outer.ContainsRect(st.safe) {
				return fmt.Errorf("range query %d: member %d safe region %v escapes quarantine rect %v",
					q.ID, id, st.safe, q.Rect)
			}
		} else {
			inter := st.safe.Intersect(q.Rect)
			if inter.IsValid() && inter.Width() > geom.Epsilon && inter.Height() > geom.Epsilon {
				return fmt.Errorf("range query %d: non-member %d safe region %v overlaps quarantine rect %v interior",
					q.ID, id, st.safe, q.Rect)
			}
		}
	}
	return nil
}

// checkCircleContainment is the circular-quarantine counterpart for
// within-distance queries: members inside the circle, non-members outside.
func (m *Monitor) checkCircleContainment(q *query.Query) error {
	c := q.Circle()
	for id, st := range m.objects {
		if q.InResult[id] {
			if st.safe.MaxDist(c.Center) > c.R+geom.Epsilon {
				return fmt.Errorf("circle query %d: member %d safe region %v escapes quarantine circle r=%g",
					q.ID, id, st.safe, c.R)
			}
		} else if st.safe.MinDist(c.Center) < c.R-geom.Epsilon {
			return fmt.Errorf("circle query %d: non-member %d safe region %v intrudes into quarantine circle r=%g",
				q.ID, id, st.safe, c.R)
		}
	}
	return nil
}

// assertInvariants panics on an invariant violation. Under the default build
// it compiles to nothing; the srbdebug build tag turns it on, making every
// mutating Monitor operation self-checking.
//
//srb:coldpath
func (m *Monitor) assertInvariants() {
	if !debugInvariants {
		return
	}
	if err := m.CheckInvariants(); err != nil {
		panic("srbdebug: invariant violated: " + err.Error())
	}
}
