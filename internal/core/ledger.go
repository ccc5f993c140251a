package core

import (
	"io"
	"sort"
	"time"

	"srb/internal/obs"
	"srb/internal/query"
)

// ledger.go implements per-query cost accounting: the spatial-query analogue
// of a database slow-query log. The paper's evaluation axis is communication
// cost (probes, safe-region grants, reevaluations); the global Stats counters
// measure the aggregate, while the ledger attributes each unit of work to the
// query that caused it, so "which query is expensive and why" has an answer.
//
// The ledger lives inside monObs and exists only while an observability sink
// is attached, preserving the nil-sink neutrality contract: with obs disabled
// every hook is a single nil-check branch and the monitor's Stats, results,
// and state stay bit-identical.
//
// Attribution is exact by construction: every ledger bump is adjacent to the
// Stats bump it mirrors, and work with no single responsible query (a client
// update's own safe-region recompute, a batch fast-path apply) lands in an
// explicit Unattributed bucket. Deregistered queries fold into a Retired
// aggregate. The invariant — proven by the differential tests — is
//
//	sum(entries) + Unattributed + Retired == Stats growth since the ledger started
//
// for every mirrored counter, on both the sequential and the batch path.

// Estimated wire cost model: rough per-frame byte costs of the NDJSON client
// protocol, so per-query wire bytes track the paper's communication-cost
// metric without parsing actual frames.
const (
	probeWireBytes    = 40 // probe request frame + exact-point response
	grantWireBytes    = 56 // region grant: op tag, object ID, four coordinates
	resultWireBytes   = 24 // result-update frame overhead before member IDs
	resultIDWireBytes = 8  // each member ID in a result update
)

// QueryCost is one per-query ledger entry: the cumulative cost a query has
// imposed on the system since it was registered (or since the sink was
// attached, whichever is later).
type QueryCost struct {
	Query         query.ID `json:"query"`
	Kind          string   `json:"kind,omitempty"`
	Updates       int64    `json:"updates,omitempty"` // only the Unattributed bucket carries these
	Probes        int64    `json:"probes"`
	ProbesAvoided int64    `json:"probes_avoided"`
	Shrinks       int64    `json:"shrinks"` // reachability-circle virtual probes (§6.1)
	SafeRegions   int64    `json:"safe_regions"`
	Reevals       int64    `json:"reevals"`
	ReevalsEnter  int64    `json:"reevals_enter"` // range/circle: object entered the result
	ReevalsExit   int64    `json:"reevals_exit"`  // range/circle: object left the result
	KNNCase1      int64    `json:"knn_case1"`
	KNNCase2      int64    `json:"knn_case2"`
	KNNCase3      int64    `json:"knn_case3"`
	FullReevals   int64    `json:"full_reevals"`
	NewQueryEvals int64    `json:"new_query_evals"`
	ResultChanges int64    `json:"result_changes"`
	Grants        int64    `json:"grants"`
	WireBytes     int64    `json:"wire_bytes"`
}

// Score ranks queries for the hottest-queries view: estimated wire bytes (the
// paper's communication cost) plus a small CPU weight so compute-heavy
// queries that rarely touch the wire still surface.
func (c *QueryCost) Score() int64 {
	return c.WireBytes + 8*(c.Reevals+c.SafeRegions)
}

// add folds o into c, leaving identity fields untouched.
func (c *QueryCost) add(o *QueryCost) {
	c.Updates += o.Updates
	c.Probes += o.Probes
	c.ProbesAvoided += o.ProbesAvoided
	c.Shrinks += o.Shrinks
	c.SafeRegions += o.SafeRegions
	c.Reevals += o.Reevals
	c.ReevalsEnter += o.ReevalsEnter
	c.ReevalsExit += o.ReevalsExit
	c.KNNCase1 += o.KNNCase1
	c.KNNCase2 += o.KNNCase2
	c.KNNCase3 += o.KNNCase3
	c.FullReevals += o.FullReevals
	c.NewQueryEvals += o.NewQueryEvals
	c.ResultChanges += o.ResultChanges
	c.Grants += o.Grants
	c.WireBytes += o.WireBytes
}

// slowOpChainCap bounds the cause chain recorded per operation; an update
// rippling through more queries than this logs a truncated chain.
const slowOpChainCap = 16

// ledger is the mutable accounting state. It is owned by the monitor's
// serialized operation loop; no locking.
type ledger struct {
	entries      map[query.ID]*QueryCost
	unattributed QueryCost
	retired      QueryCost
	retiredN     int64

	// Per-operation attribution context, cleared by opEnd: cur is the query
	// whose (re)evaluation is in progress, causeBy maps an object probed or
	// shrunk during the operation to the query that did it (safe-region
	// recomputes and region grants for that object then bill the same query),
	// and opChain records the queries touched, for the slow-op log.
	cur     *QueryCost
	curID   query.ID
	causeBy map[uint64]query.ID
	opChain []query.ID

	wireTotal int64 // estimated wire bytes booked since the ledger started
}

func newLedger(m *Monitor) *ledger {
	lg := &ledger{
		entries: make(map[query.ID]*QueryCost, len(m.queries)),
		causeBy: make(map[uint64]query.ID),
	}
	for id, q := range m.queries {
		lg.entries[id] = &QueryCost{Query: id, Kind: q.Kind.String()}
	}
	return lg
}

// bucket returns the entry work should bill to: the focused query when one is
// set, the Unattributed bucket otherwise.
func (lg *ledger) bucket() *QueryCost {
	if lg.cur != nil {
		return lg.cur
	}
	return &lg.unattributed
}

// entry returns (creating if needed) the ledger entry for a query.
func (lg *ledger) entry(q *query.Query) *QueryCost {
	e := lg.entries[q.ID]
	if e == nil {
		e = &QueryCost{Query: q.ID, Kind: q.Kind.String()}
		lg.entries[q.ID] = e
	}
	return e
}

// focus directs subsequent ambient work (probes, shrinks) to q;
// unfocus reverts to the Unattributed bucket.
func (lg *ledger) focus(q *query.Query) {
	lg.cur = lg.entry(q)
	lg.curID = q.ID
}

func (lg *ledger) unfocus() { lg.cur = nil }

// opEnd clears the per-operation attribution context.
func (lg *ledger) opEnd() {
	lg.cur = nil
	if len(lg.causeBy) != 0 {
		lg.causeBy = make(map[uint64]query.ID)
	}
	lg.opChain = lg.opChain[:0]
}

// --- attribution hooks (each adjacent to the Stats bump it mirrors) ----------

func (lg *ledger) noteUpdate() { lg.unattributed.Updates++ }

func (lg *ledger) noteProbe(obj uint64) {
	b := lg.bucket()
	b.Probes++
	b.WireBytes += probeWireBytes
	lg.wireTotal += probeWireBytes
	if lg.cur != nil {
		lg.causeBy[obj] = lg.curID
	}
}

func (lg *ledger) noteProbeAvoided() { lg.bucket().ProbesAvoided++ }

func (lg *ledger) noteShrink(obj uint64) {
	lg.bucket().Shrinks++
	if lg.cur != nil {
		lg.causeBy[obj] = lg.curID
	}
}

// noteSafeRegion bills a full safe-region computation for obj: to the query
// that probed or shrunk it this operation, else to the focused query, else
// Unattributed (the primary object's own recompute after its update).
func (lg *ledger) noteSafeRegion(obj uint64) {
	if qid, ok := lg.causeBy[obj]; ok {
		if e := lg.entries[qid]; e != nil {
			e.SafeRegions++
			return
		}
	}
	lg.bucket().SafeRegions++
}

// noteGrant bills a safe-region grant pushed to the client owning obj,
// attributed like noteSafeRegion.
func (lg *ledger) noteGrant(obj uint64) {
	b := lg.bucket()
	if qid, ok := lg.causeBy[obj]; ok {
		if e := lg.entries[qid]; e != nil {
			b = e
		}
	}
	b.Grants++
	b.WireBytes += grantWireBytes
	lg.wireTotal += grantWireBytes
}

func (lg *ledger) noteReeval(q *query.Query) {
	e := lg.entry(q)
	e.Reevals++
	lg.focus(q)
	if len(lg.opChain) < slowOpChainCap {
		lg.opChain = append(lg.opChain, q.ID)
	}
}

func (lg *ledger) noteEnter(q *query.Query) { lg.entry(q).ReevalsEnter++ }
func (lg *ledger) noteExit(q *query.Query)  { lg.entry(q).ReevalsExit++ }

func (lg *ledger) noteKNNCase(q *query.Query, c int) {
	e := lg.entry(q)
	switch c {
	case 1:
		e.KNNCase1++
	case 2:
		e.KNNCase2++
	case 3:
		e.KNNCase3++
	}
}

func (lg *ledger) noteFullReeval(q *query.Query) { lg.entry(q).FullReevals++ }

func (lg *ledger) noteRegister(q *query.Query) {
	e := lg.entry(q)
	e.NewQueryEvals++
	lg.focus(q)
}

func (lg *ledger) notePublish(q *query.Query, members int, aggregate bool) {
	e := lg.entry(q)
	e.ResultChanges++
	wb := int64(resultWireBytes)
	if !aggregate {
		wb += int64(members) * resultIDWireBytes
	}
	e.WireBytes += wb
	lg.wireTotal += wb
}

// noteFastPath mirrors ApplyPlanned's replayed effect sequence: one source
// update plus one safe-region build, conflict-free by construction, so both
// land in the Unattributed bucket along with the single region grant.
func (lg *ledger) noteFastPath() {
	lg.unattributed.Updates++
	lg.unattributed.SafeRegions++
	lg.unattributed.Grants++
	lg.unattributed.WireBytes += grantWireBytes
	lg.wireTotal += grantWireBytes
}

// retire folds a deregistered query's entry into the Retired aggregate so the
// sum invariant keeps holding after the query is gone.
func (lg *ledger) retire(id query.ID) {
	e := lg.entries[id]
	if e == nil {
		return
	}
	lg.retired.add(e)
	lg.retiredN++
	delete(lg.entries, id)
}

// --- public ledger views -----------------------------------------------------

// QueryCosts returns the per-query ledger entries in ascending query-ID
// order, or nil when no observability sink is attached.
func (m *Monitor) QueryCosts() []QueryCost {
	if m.mobs == nil {
		return nil
	}
	lg := m.mobs.lg
	out := make([]QueryCost, 0, len(lg.entries))
	for _, e := range lg.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Query < out[j].Query })
	return out
}

// UnattributedCost returns the bucket of work with no single responsible
// query: client updates' own safe-region recomputes and grants, and batch
// fast-path applies.
func (m *Monitor) UnattributedCost() QueryCost {
	if m.mobs == nil {
		return QueryCost{}
	}
	return m.mobs.lg.unattributed
}

// RetiredCost returns the folded totals of deregistered queries; RetiredQueries
// how many entries were folded.
func (m *Monitor) RetiredCost() QueryCost {
	if m.mobs == nil {
		return QueryCost{}
	}
	return m.mobs.lg.retired
}

// RetiredQueries returns the number of ledger entries folded into RetiredCost.
func (m *Monitor) RetiredQueries() int64 {
	if m.mobs == nil {
		return 0
	}
	return m.mobs.lg.retiredN
}

// HotQueries returns the k highest-Score ledger entries, hottest first (ties
// broken by ascending query ID for determinism). Nil without a sink.
func (m *Monitor) HotQueries(k int) []QueryCost {
	all := m.QueryCosts()
	if all == nil || k <= 0 {
		return nil
	}
	sort.Slice(all, func(i, j int) bool {
		si, sj := all[i].Score(), all[j].Score()
		if si != sj {
			return si > sj
		}
		return all[i].Query < all[j].Query
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// SetSlowOpLog configures slow-operation detection: an operation taking
// threshold or longer records a slow_op event (op name in its note, duration,
// causal trace ID, work deltas and the chain of queries touched) into the
// sink's ring, and its NDJSON line is appended to w when w is not nil.
// Requires an attached observability sink (operation timing exists only
// then); threshold <= 0 disables.
func (m *Monitor) SetSlowOpLog(threshold time.Duration, w io.Writer) {
	m.slowThresh = threshold
	m.slowW = w
}

// slowOp records a slow_op event for an operation that took dur from its
// start at ts into the ring and, when a slow-op log is configured, writes the
// event's NDJSON line to it. Log failures are swallowed: the log is
// diagnostic, the operation itself already succeeded.
//
//srb:coldpath
func (m *Monitor) slowOp(op string, ts int64, dur time.Duration, d, before Stats) {
	so := &obs.SlowOp{
		Probes:        d.Probes - before.Probes,
		Reevals:       d.Reevaluations - before.Reevaluations,
		SafeRegions:   d.SafeRegionsBuilt - before.SafeRegionsBuilt,
		ResultChanges: d.ResultChanges - before.ResultChanges,
	}
	for _, q := range m.mobs.lg.opChain {
		so.Chain = append(so.Chain, uint64(q))
	}
	ev := obs.Event{TS: ts, Kind: obs.FlightSlowOp, Trace: m.opTrace, Dur: dur.Nanoseconds(), Note: op, Slow: so}
	m.mobs.fr.Record(ev)
	if m.slowW != nil {
		_, _ = m.slowW.Write(ev.AppendNDJSON(nil)) //lint:allow errdrop diagnostic log write; the operation already succeeded
	}
}
