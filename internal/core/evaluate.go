package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"srb/internal/geom"
	"srb/internal/obs"
	"srb/internal/query"
	"srb/internal/rtree"
)

// --- priority queue for best-first search (Algorithm 2) ----------------------

type pqItem struct {
	key   float64
	seq   uint64 // last-resort tie-breaker: FIFO among otherwise-equal entries
	node  *rtree.Node
	id    uint64
	isObj bool
	exact bool
	pt    geom.Point // valid when exact
}

// evalPQ is the best-first frontier: a binary min-heap over Less. The
// Monitor keeps one and reuses its backing array for every search, which is
// safe because searches never nest (probe and virtualProbe never search).
type evalPQ struct {
	items []pqItem
	seq   uint64
}

// Less orders the frontier canonically: key ascending; at equal key, nodes
// expand before objects, and objects tie-break by ID. This makes the object
// pop sequence a pure function of the indexed regions, independent of tree
// shape: when an object pops, no node with key ≤ its key remains, so any
// unpopped object with a smaller (key, ID) would still be covered by such a
// node — contradiction. Two trees of different shape over the same regions
// (a live tree and its LoadSnapshot or ReplayJournal rebuild) therefore pop
// objects (and thus hold, probe, and append results) in exactly the same
// order. See DESIGN.md §14 "Determinism guarantees".
func (p *evalPQ) Less(i, j int) bool {
	a, b := &p.items[i], &p.items[j]
	//lint:allow floatcmp comparator tie-break: exact inequality guards the canonical fallback
	if a.key != b.key {
		return a.key < b.key
	}
	if a.isObj != b.isObj {
		return !a.isObj
	}
	if a.isObj && a.id != b.id {
		return a.id < b.id
	}
	return a.seq < b.seq
}

// push adds an entry, stamping it with the next sequence number. seq is
// unique within a search, so Less is a strict total order and every correct
// heap pops the same sequence.
func (p *evalPQ) push(it pqItem) {
	it.seq = p.seq
	p.seq++
	p.items = append(p.items, it)
	for i := len(p.items) - 1; i > 0; {
		parent := (i - 1) / 2
		if !p.Less(i, parent) {
			break
		}
		p.items[i], p.items[parent] = p.items[parent], p.items[i]
		i = parent
	}
}

// pop removes and returns the least entry.
func (p *evalPQ) pop() pqItem {
	top := p.items[0]
	n := len(p.items) - 1
	p.items[0] = p.items[n]
	p.items = p.items[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && p.Less(r, j) {
			j = r
		}
		if !p.Less(j, i) {
			break
		}
		p.items[i], p.items[j] = p.items[j], p.items[i]
		i = j
	}
	return top
}

// expand pushes the entries of index node n onto pq with keys relative to
// qp: child nodes by their bounding rect's MinDist, leaf objects by the
// MinDist of their indexed rect, which mirrors the object's safe region
// exactly (every safe-region write updates the tree). Excluded objects are
// skipped, and so are objects probed in this operation: seedSearch seeds
// those exactly, since their indexed rect is stale. m.seeded lists them;
// an object probed after seeding was popped from the frontier first, so its
// leaf entry has already been expanded and cannot come up again.
func (m *Monitor) expand(pq *evalPQ, qp geom.Point, exclude []uint64, n *rtree.Node) {
	if !n.IsLeaf() {
		for i := 0; i < n.Count(); i++ {
			pq.push(pqItem{key: n.RectAt(i).MinDist(qp), node: n.ChildAt(i)})
		}
		return
	}
	for i := 0; i < n.Count(); i++ {
		it := n.ItemAt(i)
		if containsID(exclude, it.ID) {
			continue
		}
		if _, probed := slices.BinarySearch(m.seeded, it.ID); probed {
			continue
		}
		if debugInvariants {
			m.assertIndexed(it)
		}
		pq.push(pqItem{key: it.Rect.MinDist(qp), id: it.ID, isObj: true})
	}
}

// assertIndexed panics unless a leaf entry's rect is its object's safe
// region bit-for-bit, the premise of expand's keys (srbdebug builds).
//
//srb:coldpath
func (m *Monitor) assertIndexed(it rtree.Item) {
	st := m.objects[it.ID]
	//lint:allow floatcmp identity check: the tree must mirror st.safe bit-for-bit
	if st == nil || st.safe != it.Rect {
		panic(fmt.Sprintf("srbdebug: leaf entry of object %d has rect %v, not its safe region", it.ID, it.Rect))
	}
}

// containsID reports whether id is in ids (a kNN result list: k is small,
// so a linear scan beats a set).
func containsID(ids []uint64, id uint64) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// seedSearch resets the monitor's frontier and primes it: one zero-key entry
// for the index root, plus every object already probed in this operation as
// an exact point item.
// Probed objects must bypass tree discovery entirely: their authoritative
// representation is the probe point, but their indexed rect is still the
// pre-probe safe region (the index is only refreshed when the op finishes),
// so a covering node's MinDist no longer lower-bounds their distance. Left in
// the tree, their discovery time — and with it the canonical pop order —
// would depend on how the index groups objects, breaking tree-shape
// independence. Seeded up front with exact keys, the remaining tree search is
// admissible for every object it can still discover.
func (m *Monitor) seedSearch(qp geom.Point, exclude []uint64) *evalPQ {
	pq := &m.pq
	pq.items = pq.items[:0]
	pq.seq = 0
	if m.tree.Len() > 0 {
		pq.push(pqItem{key: 0, node: m.tree.Root()})
	}
	m.seeded = m.appendProbedIDs(m.seeded[:0])
	for _, pid := range m.seeded {
		if containsID(exclude, pid) {
			continue
		}
		p := m.probedNow[pid]
		pq.push(pqItem{key: qp.Dist(p), id: pid, isObj: true, exact: true, pt: p})
	}
	return pq
}

// frontierObjectKey expands queued nodes until the queue front is an object
// and returns that object's key — the minimum δ over every object still in
// the frontier, which is a structure-independent quantity (a node's MinDist
// is not: it depends on how the index groups objects). Both kNN variants use
// it for the next-element bound behind the quarantine radius, and the
// order-insensitive variant for its displacement test. Returns false when no
// objects remain.
func (m *Monitor) frontierObjectKey(pq *evalPQ, qp geom.Point, exclude []uint64) (float64, bool) {
	for len(pq.items) > 0 {
		if pq.items[0].isObj {
			return pq.items[0].key, true
		}
		m.expand(pq, qp, exclude, pq.pop().node)
	}
	return 0, false
}

// --- query registration -------------------------------------------------------

// RegisterRange registers a continuous range query and returns its initial
// result together with safe-region refreshes for every object probed during
// the evaluation.
func (m *Monitor) RegisterRange(id query.ID, rect geom.Rect) ([]uint64, []SafeRegionUpdate, error) {
	if _, ok := m.queries[id]; ok {
		return nil, nil, fmt.Errorf("core: query %d already registered", id)
	}
	var t0 time.Time
	var before Stats
	if m.mobs != nil {
		t0, before = m.obsStart()
	}
	q := query.NewRange(id, rect)
	m.beginOp()
	m.stats.NewQueryEvals++
	if m.mobs != nil {
		m.mobs.lg.noteRegister(q)
	}
	results := m.evalRange(q)
	m.setResults(q, results)
	m.queries[id] = q
	m.grid.Insert(q)
	updates := m.refreshProbedAgainst(q)
	if m.mobs != nil {
		m.mobs.done(m, obs.KindCoreRegister, m.mobs.regSeconds, t0, before)
	}
	m.assertInvariants()
	return append([]uint64(nil), results...), updates, nil
}

// RegisterKNN registers a continuous kNN query and returns its initial
// result (ordered by distance) together with safe-region refreshes for every
// object probed during the evaluation.
func (m *Monitor) RegisterKNN(id query.ID, pt geom.Point, k int, orderSensitive bool) ([]uint64, []SafeRegionUpdate, error) {
	if _, ok := m.queries[id]; ok {
		return nil, nil, fmt.Errorf("core: query %d already registered", id)
	}
	var t0 time.Time
	var before Stats
	if m.mobs != nil {
		t0, before = m.obsStart()
	}
	q := query.NewKNN(id, pt, k, orderSensitive)
	m.beginOp()
	m.stats.NewQueryEvals++
	if m.mobs != nil {
		m.mobs.lg.noteRegister(q)
	}
	m.evalKNN(q)
	m.queries[id] = q
	m.grid.Insert(q)
	updates := m.refreshProbedAgainst(q)
	if m.mobs != nil {
		m.mobs.done(m, obs.KindCoreRegister, m.mobs.regSeconds, t0, before)
	}
	m.assertInvariants()
	return append([]uint64(nil), q.Results...), updates, nil
}

// RegisterWithinDistance registers a circular range query: the monitor
// continuously maintains the set of objects within radius of center. Its
// quarantine area is the circle itself; safe regions reuse the inscribed
// rectangle (members) and complement (non-members) constructions of Section
// 5.2.
func (m *Monitor) RegisterWithinDistance(id query.ID, center geom.Point, radius float64) ([]uint64, []SafeRegionUpdate, error) {
	if _, ok := m.queries[id]; ok {
		return nil, nil, fmt.Errorf("core: query %d already registered", id)
	}
	var t0 time.Time
	var before Stats
	if m.mobs != nil {
		t0, before = m.obsStart()
	}
	q := query.NewWithinDistance(id, center, radius)
	m.beginOp()
	m.stats.NewQueryEvals++
	if m.mobs != nil {
		m.mobs.lg.noteRegister(q)
	}
	results := m.evalCircle(q)
	m.setResults(q, results)
	m.queries[id] = q
	m.grid.Insert(q)
	updates := m.refreshProbedAgainst(q)
	if m.mobs != nil {
		m.mobs.done(m, obs.KindCoreRegister, m.mobs.regSeconds, t0, before)
	}
	m.assertInvariants()
	return append([]uint64(nil), results...), updates, nil
}

// evalCircle evaluates a circular range query over safe regions with lazy
// probes, mirroring evalRange with circle containment tests.
func (m *Monitor) evalCircle(q *query.Query) []uint64 {
	c := q.Circle()
	var results []uint64
	for _, it := range m.rangeCandidates(c.BBox()) {
		r := m.repr(it.ID)
		lo, hi := r.MinDist(q.Point), r.MaxDist(q.Point)
		if lo > c.R {
			continue
		}
		if hi <= c.R {
			results = append(results, it.ID)
			continue
		}
		if m.virtualProbe(it.ID) {
			r = m.repr(it.ID)
			lo, hi = r.MinDist(q.Point), r.MaxDist(q.Point)
			if lo > c.R {
				m.noteProbeAvoided(it.ID)
				continue
			}
			if hi <= c.R {
				m.noteProbeAvoided(it.ID)
				results = append(results, it.ID)
				continue
			}
		}
		p := m.probe(it.ID)
		if q.Point.Dist(p) <= c.R {
			results = append(results, it.ID)
		}
	}
	return results
}

// RegisterCount registers an aggregate COUNT range query (the Section 8
// extension): the monitor continuously maintains how many objects are inside
// rect, publishing only the count on changes. Returns the initial count.
func (m *Monitor) RegisterCount(id query.ID, rect geom.Rect) (int, []SafeRegionUpdate, error) {
	if _, ok := m.queries[id]; ok {
		return 0, nil, fmt.Errorf("core: query %d already registered", id)
	}
	var t0 time.Time
	var before Stats
	if m.mobs != nil {
		t0, before = m.obsStart()
	}
	q := query.NewCountRange(id, rect)
	m.beginOp()
	m.stats.NewQueryEvals++
	if m.mobs != nil {
		m.mobs.lg.noteRegister(q)
	}
	results := m.evalRange(q)
	m.setResults(q, results)
	m.queries[id] = q
	m.grid.Insert(q)
	updates := m.refreshProbedAgainst(q)
	if m.mobs != nil {
		m.mobs.done(m, obs.KindCoreRegister, m.mobs.regSeconds, t0, before)
	}
	m.assertInvariants()
	return len(results), updates, nil
}

// Deregister removes a query from the system.
func (m *Monitor) Deregister(id query.ID) bool {
	q, ok := m.queries[id]
	if !ok {
		return false
	}
	for _, rid := range q.Results {
		m.unnoteResult(q, rid)
	}
	m.grid.Remove(q)
	delete(m.queries, id)
	if m.mobs != nil {
		m.mobs.lg.retire(id)
		m.mobs.publish(m)
		m.mobs.fr.Record(obs.Event{Kind: obs.KindCoreDeregister, Trace: m.opTrace, Query: uint64(id)})
	}
	m.assertInvariants()
	return true
}

// refreshProbedAgainst updates the safe region of every object probed during
// the evaluation of new query q. Per Section 5 (case 1), the refreshed region
// is the intersection of the current safe region with the region induced by
// the new query alone, since no existing quarantine area changed.
func (m *Monitor) refreshProbedAgainst(q *query.Query) []SafeRegionUpdate {
	// Probes reveal movement that can change *other* queries' results; the
	// freshly registered query q itself was just evaluated on exact points.
	m.settleProbes(nil, q)
	var out []SafeRegionUpdate
	for _, pid := range m.sortedProbedIDs() {
		loc := m.probedNow[pid]
		st := m.objects[pid]
		cell := m.grid.NeighborhoodRect(loc, m.opt.CellNeighborhood)
		srQ := m.safeRegionForQuery(q, st, cell)
		st.safe = clampSafe(st.safe.Intersect(srQ), loc)
		m.tree.Update(pid, st.safe)
		out = append(out, SafeRegionUpdate{Object: pid, Region: st.safe, Probed: true})
	}
	out = append(out, m.flushShrunk(nil)...)
	m.probedNow = make(map[uint64]geom.Point)
	m.probedFrom = make(map[uint64]geom.Point)
	return out
}

// --- range evaluation (Section 4.1) -------------------------------------------

// evalRange evaluates a new range query over safe regions: fully covered
// regions are results, partially overlapping objects are probed lazily,
// skipping probes the reachability circle can resolve.
func (m *Monitor) evalRange(q *query.Query) []uint64 {
	var results []uint64
	for _, it := range m.rangeCandidates(q.Rect) {
		r := m.repr(it.ID)
		if !r.Intersects(q.Rect) {
			continue // representation tightened since indexing
		}
		if q.Rect.ContainsRect(r) {
			results = append(results, it.ID)
			continue
		}
		// Try a reachability-circle virtual probe before a real one
		// (Section 6.1): the durably shrunken region may already decide
		// membership.
		if m.virtualProbe(it.ID) {
			r = m.repr(it.ID)
			if q.Rect.ContainsRect(r) {
				m.noteProbeAvoided(it.ID)
				results = append(results, it.ID)
				continue
			}
			if !r.Intersects(q.Rect) {
				m.noteProbeAvoided(it.ID)
				continue
			}
		}
		p := m.probe(it.ID)
		if q.Rect.Contains(p) {
			results = append(results, it.ID)
		}
	}
	return results
}

// rangeCandidates collects the indexed items intersecting r and sorts them
// by ascending object ID. The canonical order makes probe sequences, result
// lists, and journal entries independent of index structure — two trees of
// different shape visit in different orders, and both collapse to the same
// sequence here.
func (m *Monitor) rangeCandidates(r geom.Rect) []rtree.Item {
	var items []rtree.Item
	m.tree.Search(r, func(it rtree.Item) bool {
		items = append(items, it)
		return true
	})
	sort.Slice(items, func(i, j int) bool { return items[i].ID < items[j].ID })
	return items
}

// --- kNN evaluation (Section 4.2, Algorithm 2) ---------------------------------

const noNextElement = -1.0

// evalKNN evaluates a new kNN query from scratch over safe regions with lazy
// probes, filling q.Results and q.QRadius.
func (m *Monitor) evalKNN(q *query.Query) {
	var ids []uint64
	var maxK, nextMin float64
	if q.OrderSensitive {
		ids, maxK, nextMin = m.knnOrderSensitive(q.Point, q.K, nil)
	} else {
		ids, maxK, nextMin = m.knnOrderInsensitive(q.Point, q.K, nil)
	}
	m.setResults(q, ids)
	q.QRadius = m.quarantineRadius(maxK, nextMin)
}

// quarantineSplit positions the quarantine circle within its legal interval
// [Δ(q, o_k), δ(q, o_{k+1})) as the fraction of the gap that goes to the
// inside. It is the paper's midpoint (Section 3.3): the k-th NN and the
// nearest non-result get equal room.
const quarantineSplit = 0.5

// quarantineRadius places the quarantine circle between the k-th NN's
// maximum distance and the next element's minimum distance (Section 3.3).
// With no next element the radius still covers the whole space.
func (m *Monitor) quarantineRadius(maxK, nextMin float64) float64 {
	//lint:allow floatcmp noNextElement is an exact sentinel value, never computed
	if nextMin == noNextElement {
		return maxK + m.opt.Space.Width() + m.opt.Space.Height()
	}
	if nextMin < maxK {
		nextMin = maxK
	}
	return maxK + quarantineSplit*(nextMin-maxK)
}

// knnOrderSensitive is Algorithm 2: best-first search holding at most one
// unresolved safe-region object, probing only when the order cannot be
// decided (lazy probes). exclude (optional) skips objects, as required by
// the constrained search of reevaluation case 1.
//
// It returns the ordered result IDs, the maximum distance bound of the k-th
// result, and the minimum distance of the next queue element (noNextElement
// when the queue ran dry). The result slice is the search's only allocation.
func (m *Monitor) knnOrderSensitive(qp geom.Point, k int, exclude []uint64) ([]uint64, float64, float64) {
	pq := m.seedSearch(qp, exclude)
	var results []uint64
	if n := min(k, m.tree.Len()); n > 0 {
		results = make([]uint64, 0, n)
	}
	var lastMax float64 // Δ bound of the last appended result
	var heldItem pqItem
	var held *pqItem // &heldItem while an unresolved object is held

	for len(results) < k && len(pq.items) > 0 {
		u := pq.pop()
		if !u.isObj {
			m.expand(pq, qp, exclude, u.node)
			continue
		}
		if held != nil {
			_, heldMax := m.itemBounds(qp, *held)
			if heldMax <= u.key {
				results, lastMax = m.appendResult(results, qp, *held)
				held = nil
				if len(results) == k {
					pq.push(u) // put u back for the radius computation
					break
				}
			} else {
				h := *held
				held = nil
				// Virtual probes (Section 6.1) may shrink either safe region
				// enough to decide the order without a real probe.
				vh := !h.exact && m.virtualProbe(h.id)
				vu := !u.exact && m.virtualProbe(u.id)
				if vh || vu {
					lo, _ := m.bounds(qp, h.id)
					pq.push(pqItem{key: lo, id: h.id, isObj: true})
					if vu {
						u.key, _ = m.bounds(qp, u.id)
					}
					pq.push(u)
					continue
				}
				// Still ambiguous: probe the held object (mandatory by
				// laziness), re-enqueue both, and continue.
				pq.push(u)
				p := m.probe(h.id)
				pq.push(pqItem{key: qp.Dist(p), id: h.id, isObj: true, exact: true, pt: p})
				continue
			}
		}
		if m.opt.EagerProbes && !u.exact && !m.isExact(u.id) {
			// Ablation: probe immediately rather than holding lazily.
			p := m.probe(u.id)
			u = pqItem{key: qp.Dist(p), id: u.id, isObj: true, exact: true, pt: p}
			pq.push(u)
			continue
		}
		if u.exact || m.isExact(u.id) {
			results, lastMax = m.appendResult(results, qp, u)
		} else {
			heldItem = u
			held = &heldItem
		}
	}
	if held != nil && len(results) < k {
		// Queue exhausted with one object still held: it is the last
		// candidate, so it completes the result.
		results, lastMax = m.appendResult(results, qp, *held)
	}
	nextMin := noNextElement
	if fk, ok := m.frontierObjectKey(pq, qp, exclude); ok {
		nextMin = fk
	}
	return results, lastMax, nextMin
}

// appendResult appends a resolved item's ID to results and returns the
// extended slice with the item's Δ bound.
func (m *Monitor) appendResult(results []uint64, qp geom.Point, it pqItem) ([]uint64, float64) {
	_, hi := m.itemBounds(qp, it)
	return append(results, it.id), hi
}

// knnOrderInsensitive evaluates a set-semantics kNN query: up to k objects
// are held simultaneously, and a probe is issued only when the queue front
// could displace the worst held candidate (Section 4.2's order-insensitive
// variant, which needs fewer probes). The held set lives in a scratch slice
// on the monitor; the returned ID slice is the search's only allocation.
func (m *Monitor) knnOrderInsensitive(qp geom.Point, k int, exclude []uint64) ([]uint64, float64, float64) {
	pq := m.seedSearch(qp, exclude)
	held := m.held[:0]

	for {
		if len(held) == k {
			// Expand nodes until the queue front is an object: the break test
			// must compare against an object's δ, not a node's MinDist, or
			// the decision would depend on tree shape (a LoadSnapshot or
			// ReplayJournal rebuild groups objects differently).
			topKey, ok := m.frontierObjectKey(pq, qp, exclude)
			wi, wv := m.worstHeld(qp, held)
			if !ok || wv <= topKey {
				break // all held are certainly among the k nearest
			}
			w := held[wi]
			if !w.exact && !m.isExact(w.id) {
				// A virtual probe may shrink the candidate's region enough to
				// keep it; otherwise a lazy real probe resolves its distance.
				if m.virtualProbe(w.id) {
					continue
				}
				p := m.probe(w.id)
				held[wi] = pqItem{key: qp.Dist(p), id: w.id, isObj: true, exact: true, pt: p}
				continue
			}
			// The worst candidate is an exact point but the queue front is
			// still potentially closer: evict it back into the queue (with a
			// refreshed key — its stale enqueue-time key may underestimate
			// after a probe) and keep searching.
			held = append(held[:wi], held[wi+1:]...)
			w.key, _ = m.itemBounds(qp, w)
			pq.push(w)
		}
		if len(pq.items) == 0 {
			break
		}
		u := pq.pop()
		if !u.isObj {
			m.expand(pq, qp, exclude, u.node)
			continue
		}
		held = append(held, u)
	}
	m.held = held[:0]

	ids := make([]uint64, 0, len(held))
	maxK := 0.0
	for _, h := range held {
		ids = append(ids, h.id)
		if _, hi := m.itemBounds(qp, h); hi > maxK {
			maxK = hi
		}
	}
	nextMin := noNextElement
	if fk, ok := m.frontierObjectKey(pq, qp, exclude); ok {
		nextMin = fk
	}
	return ids, maxK, nextMin
}

// worstHeld returns the index and Δ bound of the held candidate with the
// largest maximum distance (-1, -1 when none is held).
func (m *Monitor) worstHeld(qp geom.Point, held []pqItem) (int, float64) {
	wi, wv := -1, -1.0
	for i := range held {
		if _, hi := m.itemBounds(qp, held[i]); hi > wv {
			wi, wv = i, hi
		}
	}
	return wi, wv
}

// itemBounds returns [δ, Δ] for a queue item, using the exact point when the
// item was resolved by a probe.
func (m *Monitor) itemBounds(qp geom.Point, it pqItem) (float64, float64) {
	if it.exact {
		d := qp.Dist(it.pt)
		return d, d
	}
	return m.bounds(qp, it.id)
}

// constrained1NN finds the nearest object outside exclude, returning the
// winner, the maximum-distance bound of the winner, the minimum distance of
// the runner-up (noNextElement when none), and whether a winner exists.
// Used by reevaluation case 1 to find a replacement k-th NN.
func (m *Monitor) constrained1NN(qp geom.Point, exclude []uint64) (uint64, float64, float64, bool) {
	ids, maxK, nextMin := m.knnOrderSensitive(qp, 1, exclude)
	if len(ids) == 0 {
		return 0, 0, 0, false
	}
	return ids[0], maxK, nextMin, true
}
