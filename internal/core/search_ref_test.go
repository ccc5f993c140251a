package core

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"srb/internal/geom"
	"srb/internal/query"
	"srb/internal/rtree"
)

// This file keeps the previous best-first search (Algorithm 2) as an oracle
// for the allocation-free one in evaluate.go: a container/heap frontier made
// fresh per search, a closure expander that keys leaf objects through
// m.bounds, and a map-based exclude set. It is the old code with its
// comments dropped, changed only in index access, which went through a
// shard-aware seam that no longer exists: the seed is the tree root, and
// expansion walks the node directly.

type refPQ struct {
	items []pqItem
	seq   uint64
}

func (p *refPQ) Len() int { return len(p.items) }

func (p *refPQ) Less(i, j int) bool {
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
func (p *refPQ) Swap(i, j int)      { p.items[i], p.items[j] = p.items[j], p.items[i] }
func (p *refPQ) Push(x interface{}) { p.items = append(p.items, x.(pqItem)) }
func (p *refPQ) Pop() interface{} {
	old := p.items
	n := len(old)
	it := old[n-1]
	p.items = old[:n-1]
	return it
}

func (p *refPQ) push(it pqItem) {
	it.seq = p.seq
	p.seq++
	heap.Push(p, it)
}

func (p *refPQ) pop() pqItem { return heap.Pop(p).(pqItem) }

func (m *Monitor) refNewExpander(pq *refPQ, qp geom.Point, exclude map[uint64]bool) func(pqItem) {
	visit := func(child *rtree.Node, childRect geom.Rect, it rtree.Item, isItem bool) {
		if isItem {
			if exclude[it.ID] {
				return
			}
			if _, probed := m.probedNow[it.ID]; probed {
				return
			}
			lo, _ := m.bounds(qp, it.ID)
			pq.push(pqItem{key: lo, id: it.ID, isObj: true})
		} else {
			pq.push(pqItem{key: childRect.MinDist(qp), node: child})
		}
	}
	return func(u pqItem) {
		n := u.node
		for i := 0; i < n.Count(); i++ {
			if n.IsLeaf() {
				visit(nil, geom.Rect{}, n.ItemAt(i), true)
			} else {
				visit(n.ChildAt(i), n.RectAt(i), rtree.Item{}, false)
			}
		}
	}
}

func (m *Monitor) refSeedSearch(pq *refPQ, qp geom.Point, exclude map[uint64]bool) {
	if m.tree.Len() > 0 {
		pq.push(pqItem{key: 0, node: m.tree.Root()})
	}
	for _, pid := range m.appendProbedIDs(nil) {
		if exclude[pid] {
			continue
		}
		p := m.probedNow[pid]
		pq.push(pqItem{key: qp.Dist(p), id: pid, isObj: true, exact: true, pt: p})
	}
}

func (m *Monitor) refFrontierObjectKey(pq *refPQ, expand func(pqItem)) (float64, bool) {
	for pq.Len() > 0 {
		if pq.items[0].isObj {
			return pq.items[0].key, true
		}
		expand(pq.pop())
	}
	return 0, false
}

func (m *Monitor) refKNNOrderSensitive(qp geom.Point, k int, exclude map[uint64]bool) ([]uint64, float64, float64) {
	pq := &refPQ{}
	expand := m.refNewExpander(pq, qp, exclude)
	m.refSeedSearch(pq, qp, exclude)
	var results []uint64
	var lastMax float64
	var held *pqItem

	appendResult := func(it pqItem) {
		results = append(results, it.id)
		_, hi := m.itemBounds(qp, it)
		lastMax = hi
	}

	for len(results) < k && (pq.Len() > 0 || held != nil) {
		if pq.Len() == 0 {
			appendResult(*held)
			held = nil
			break
		}
		u := pq.pop()
		if !u.isObj {
			expand(u)
			continue
		}
		if held != nil {
			_, heldMax := m.itemBounds(qp, *held)
			if heldMax <= u.key {
				appendResult(*held)
				held = nil
				if len(results) == k {
					pq.push(u)
					break
				}
			} else {
				h := *held
				held = nil
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
				pq.push(u)
				p := m.probe(h.id)
				pq.push(pqItem{key: qp.Dist(p), id: h.id, isObj: true, exact: true, pt: p})
				continue
			}
		}
		if !u.exact && !m.isExact(u.id) && m.opt.EagerProbes {
			p := m.probe(u.id)
			u = pqItem{key: qp.Dist(p), id: u.id, isObj: true, exact: true, pt: p}
			pq.push(u)
			continue
		}
		if u.exact || m.isExact(u.id) {
			appendResult(u)
		} else {
			held = &u
		}
	}
	if held != nil && len(results) < k {
		appendResult(*held)
	}
	nextMin := noNextElement
	if fk, ok := m.refFrontierObjectKey(pq, expand); ok {
		nextMin = fk
	}
	return results, lastMax, nextMin
}

func (m *Monitor) refKNNOrderInsensitive(qp geom.Point, k int, exclude map[uint64]bool) ([]uint64, float64, float64) {
	pq := &refPQ{}
	expand := m.refNewExpander(pq, qp, exclude)
	m.refSeedSearch(pq, qp, exclude)
	var held []pqItem

	worstHeld := func() (int, float64) {
		wi, wv := -1, -1.0
		for i := range held {
			if _, hi := m.itemBounds(qp, held[i]); hi > wv {
				wi, wv = i, hi
			}
		}
		return wi, wv
	}

	for {
		if len(held) == k {
			topKey, ok := m.refFrontierObjectKey(pq, expand)
			wi, wv := worstHeld()
			if !ok || wv <= topKey {
				break
			}
			w := held[wi]
			if !w.exact && !m.isExact(w.id) {
				if m.virtualProbe(w.id) {
					continue
				}
				p := m.probe(w.id)
				held[wi] = pqItem{key: qp.Dist(p), id: w.id, isObj: true, exact: true, pt: p}
				continue
			}
			held = append(held[:wi], held[wi+1:]...)
			w.key, _ = m.itemBounds(qp, w)
			pq.push(w)
		}
		if pq.Len() == 0 {
			break
		}
		u := pq.pop()
		if !u.isObj {
			expand(u)
			continue
		}
		held = append(held, u)
	}

	ids := make([]uint64, 0, len(held))
	maxK := 0.0
	for _, h := range held {
		ids = append(ids, h.id)
		if _, hi := m.itemBounds(qp, h); hi > maxK {
			maxK = hi
		}
	}
	nextMin := noNextElement
	if fk, ok := m.refFrontierObjectKey(pq, expand); ok {
		nextMin = fk
	}
	return ids, maxK, nextMin
}

func (m *Monitor) refConstrained1NN(qp geom.Point, exclude map[uint64]bool) (uint64, float64, float64, bool) {
	ids, maxK, nextMin := m.refKNNOrderSensitive(qp, 1, exclude)
	if len(ids) == 0 {
		return 0, 0, 0, false
	}
	return ids[0], maxK, nextMin, true
}

// searchCase configures one reference comparison: the stream seed and size,
// the node capacities of the monitor running the new search and of the one
// running the reference (different capacities give differently shaped
// trees), and the options that steer the search's probe decisions.
type searchCase struct {
	seed            int64
	objects, ticks  int
	newCap, refCap  int
	maxSpeed        float64
	eager           bool
	probesPerTick   int
	searchesPerTick int
}

// runSearchComparison drives two monitors through one seeded stream of
// object moves and kNN query churn. Every tick it opens an operation, probes
// a few objects, then runs the new search on one monitor and the reference
// search on the other for random query points: both kNN variants and
// constrained1NN with a random exclude set. IDs, maxK and nextMin must match
// bit-for-bit. The searches may probe and virtually probe, so matching
// results also need matching monitor state, which is checked after each tick.
func runSearchComparison(t testing.TB, c searchCase) {
	rng := rand.New(rand.NewSource(c.seed))
	truth := map[uint64]geom.Point{}
	prober := ProberFunc(func(id uint64) geom.Point { return truth[id] })
	opt := func(capacity int) Options {
		return Options{Space: geom.R(0, 0, 100, 100), GridM: 10, TreeCapacity: capacity,
			MaxSpeed: c.maxSpeed, EagerProbes: c.eager}
	}
	mNew, mRef := New(opt(c.newCap), prober, nil), New(opt(c.refCap), prober, nil)
	both := func(f func(m *Monitor)) { f(mNew); f(mRef) }
	randPt := func() geom.Point { return geom.Pt(rng.Float64()*100, rng.Float64()*100) }

	ids := make([]uint64, c.objects)
	for i := range ids {
		ids[i] = uint64(i + 1)
		truth[ids[i]] = randPt()
		both(func(m *Monitor) { m.AddObject(ids[i], truth[ids[i]]) })
	}
	nextQ := query.ID(1)
	register := func() {
		qp, k, sens := randPt(), 1+rng.Intn(6), rng.Intn(2) == 0
		both(func(m *Monitor) {
			if _, _, err := m.RegisterKNN(nextQ, qp, k, sens); err != nil {
				t.Fatal(err)
			}
		})
		nextQ++
	}
	for i := 0; i < 4; i++ {
		register()
	}

	step := 3.0
	if c.maxSpeed > 0 {
		step = c.maxSpeed // movement must honor the reachability bound
	}
	for tick := 1; tick <= c.ticks; tick++ {
		both(func(m *Monitor) { m.SetTime(float64(tick)) })
		for _, id := range ids {
			if rng.Intn(3) != 0 {
				continue
			}
			p := truth[id]
			p.X = math.Max(0, math.Min(100, p.X+(rng.Float64()*2-1)*step))
			p.Y = math.Max(0, math.Min(100, p.Y+(rng.Float64()*2-1)*step))
			truth[id] = p
			if sr, _ := mNew.SafeRegion(id); !sr.Contains(p) {
				both(func(m *Monitor) { m.Update(id, p) })
			}
		}
		if rng.Intn(4) == 0 {
			qids := mNew.QueryIDs()
			victim := qids[rng.Intn(len(qids))]
			both(func(m *Monitor) { m.Deregister(victim) })
			register()
		}

		for i := 0; i < c.probesPerTick; i++ {
			id := ids[rng.Intn(len(ids))]
			both(func(m *Monitor) { m.probe(id) })
		}
		for s := 0; s < c.searchesPerTick; s++ {
			qp, k := randPt(), 1+rng.Intn(12)
			var exList []uint64
			exMap := map[uint64]bool{}
			for n := rng.Intn(min(8, len(ids)+1)); len(exList) < n; {
				id := ids[rng.Intn(len(ids))]
				if !exMap[id] {
					exMap[id] = true
					exList = append(exList, id)
				}
			}
			where := fmt.Sprintf("tick %d search %d (qp %v, k %d)", tick, s, qp, k)
			gi, gk, gn := mNew.knnOrderSensitive(qp, k, nil)
			wi, wk, wn := mRef.refKNNOrderSensitive(qp, k, nil)
			compareSearch(t, where+" order-sensitive", gi, gk, gn, wi, wk, wn)
			gi, gk, gn = mNew.knnOrderInsensitive(qp, k, nil)
			wi, wk, wn = mRef.refKNNOrderInsensitive(qp, k, nil)
			compareSearch(t, where+" order-insensitive", gi, gk, gn, wi, wk, wn)
			gw, gk, gn, gok := mNew.constrained1NN(qp, exList)
			ww, wk, wn, wok := mRef.refConstrained1NN(qp, exMap)
			if gok != wok || gw != ww {
				t.Fatalf("%s constrained1NN excluding %v: got (%d, %v), reference (%d, %v)", where, exList, gw, gok, ww, wok)
			}
			compareSearch(t, where+" constrained1NN", nil, gk, gn, nil, wk, wn)
		}
		both(func(m *Monitor) { m.finishOp(nil) })
		if err := mNew.CheckInvariants(); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if mNew.Stats() != mRef.Stats() {
			t.Fatalf("tick %d: stats diverged: new %+v, reference %+v", tick, mNew.Stats(), mRef.Stats())
		}
		for _, id := range ids {
			a, _ := mNew.SafeRegion(id)
			b, _ := mRef.SafeRegion(id)
			//lint:allow floatcmp bit-identity is the property under test
			if a != b {
				t.Fatalf("tick %d: object %d safe region %v, reference %v", tick, id, a, b)
			}
		}
	}
}

func compareSearch(t testing.TB, where string, gotIDs []uint64, gotMaxK, gotNext float64, wantIDs []uint64, wantMaxK, wantNext float64) {
	t.Helper()
	if !slices.Equal(gotIDs, wantIDs) {
		t.Fatalf("%s: ids %v, reference %v", where, gotIDs, wantIDs)
	}
	if math.Float64bits(gotMaxK) != math.Float64bits(wantMaxK) || math.Float64bits(gotNext) != math.Float64bits(wantNext) {
		t.Fatalf("%s: (maxK, nextMin) = (%v, %v), reference (%v, %v)", where, gotMaxK, gotNext, wantMaxK, wantNext)
	}
}

// TestSearchMatchesReference pins the allocation-free search to the previous
// implementation: same results, bounds and probes, across tree shapes and
// the option sets that change probe decisions.
func TestSearchMatchesReference(t *testing.T) {
	variants := []struct {
		name     string
		maxSpeed float64
		eager    bool
	}{{"base", 0, false}, {"reachability", 2, false}, {"eager", 0, true}}
	for _, v := range variants {
		for _, caps := range [][2]int{{4, 16}, {16, 4}} {
			t.Run(fmt.Sprintf("%s/cap%d-vs-%d", v.name, caps[0], caps[1]), func(t *testing.T) {
				runSearchComparison(t, searchCase{
					seed: 7, objects: 150, ticks: 25, newCap: caps[0], refCap: caps[1],
					maxSpeed: v.maxSpeed, eager: v.eager, probesPerTick: 4, searchesPerTick: 6,
				})
			})
		}
	}
}

// FuzzKNNSearch runs the reference comparison on fuzzed stream parameters.
func FuzzKNNSearch(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(0))
	f.Add(int64(2), uint8(5), uint8(1))
	f.Add(int64(3), uint8(90), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, objects, flags uint8) {
		c := searchCase{
			seed: seed, objects: 1 + int(objects)%120, ticks: 6,
			newCap: 4, refCap: 16, probesPerTick: int(flags>>3) % 6, searchesPerTick: 4,
		}
		if flags&1 != 0 {
			c.newCap, c.refCap = 16, 4
		}
		if flags&2 != 0 {
			c.maxSpeed = 2
		}
		if flags&4 != 0 {
			c.eager = true
		}
		runSearchComparison(t, c)
	})
}
