package core

import (
	"math/rand"
	"sort"
	"testing"

	"srb/internal/geom"
	"srb/internal/query"
)

// world is a protocol-faithful test harness: it owns the true object
// positions, answers probes with them, tracks the safe regions handed to the
// clients, and reports location updates exactly when an object leaves its
// safe region — the client behavior of Section 3.
type world struct {
	t    *testing.T
	mon  *Monitor
	pos  map[uint64]geom.Point
	safe map[uint64]geom.Rect
}

func newWorld(t *testing.T, opt Options) *world {
	w := &world{t: t, pos: map[uint64]geom.Point{}, safe: map[uint64]geom.Rect{}}
	w.mon = New(opt, ProberFunc(func(id uint64) geom.Point { return w.pos[id] }), nil)
	return w
}

func (w *world) apply(updates []SafeRegionUpdate) {
	for _, u := range updates {
		w.safe[u.Object] = u.Region
	}
}

func (w *world) add(id uint64, p geom.Point) {
	w.pos[id] = p
	w.apply(w.mon.AddObject(id, p))
}

// move displaces one object and performs the client-side protocol: report if
// and only if the new position left the safe region.
func (w *world) move(id uint64, p geom.Point) {
	w.pos[id] = p
	if !w.safe[id].Contains(p) {
		w.apply(w.mon.Update(id, p))
		if !w.safe[id].Contains(p) {
			w.t.Fatalf("object %d: refreshed safe region %v excludes reported position %v", id, w.safe[id], p)
		}
	}
}

func (w *world) bruteRange(r geom.Rect) []uint64 {
	var out []uint64
	for id, p := range w.pos {
		if r.Contains(p) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (w *world) bruteKNN(q geom.Point, k int) []uint64 {
	type nd struct {
		id uint64
		d  float64
	}
	var all []nd
	for id, p := range w.pos {
		all = append(all, nd{id, p.Dist(q)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d < all[j].d
		}
		return all[i].id < all[j].id
	})
	if len(all) > k {
		all = all[:k]
	}
	out := make([]uint64, len(all))
	for i, n := range all {
		out[i] = n.id
	}
	return out
}

func sortedCopy(ids []uint64) []uint64 {
	out := append([]uint64(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalSeq(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- registration ------------------------------------------------------------

func TestRegisterRangeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := newWorld(t, Options{})
	for i := 0; i < 500; i++ {
		w.add(uint64(i), geom.Pt(rng.Float64(), rng.Float64()))
	}
	for trial := 0; trial < 30; trial++ {
		x, y := rng.Float64()*0.9, rng.Float64()*0.9
		rect := geom.R(x, y, x+0.1, y+0.1)
		got, _, err := w.mon.RegisterRange(query.ID(trial), rect)
		if err != nil {
			t.Fatal(err)
		}
		if !equalSeq(sortedCopy(got), w.bruteRange(rect)) {
			t.Fatalf("trial %d: range result mismatch", trial)
		}
	}
	if err := w.mon.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterKNNOrderSensitiveMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := newWorld(t, Options{})
	for i := 0; i < 400; i++ {
		w.add(uint64(i), geom.Pt(rng.Float64(), rng.Float64()))
	}
	for trial := 0; trial < 30; trial++ {
		qp := geom.Pt(rng.Float64(), rng.Float64())
		k := 1 + rng.Intn(8)
		got, _, err := w.mon.RegisterKNN(query.ID(trial), qp, k, true)
		if err != nil {
			t.Fatal(err)
		}
		want := w.bruteKNN(qp, k)
		if !equalSeq(got, want) {
			t.Fatalf("trial %d (k=%d): got %v want %v", trial, k, got, want)
		}
	}
	if err := w.mon.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterKNNOrderInsensitiveMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := newWorld(t, Options{})
	for i := 0; i < 400; i++ {
		w.add(uint64(i), geom.Pt(rng.Float64(), rng.Float64()))
	}
	for trial := 0; trial < 30; trial++ {
		qp := geom.Pt(rng.Float64(), rng.Float64())
		k := 1 + rng.Intn(8)
		got, _, err := w.mon.RegisterKNN(query.ID(trial), qp, k, false)
		if err != nil {
			t.Fatal(err)
		}
		want := w.bruteKNN(qp, k)
		if !equalSeq(sortedCopy(got), sortedCopy(want)) {
			t.Fatalf("trial %d (k=%d): got %v want %v", trial, k, got, want)
		}
	}
}

func TestRegisterDuplicateQueryFails(t *testing.T) {
	w := newWorld(t, Options{})
	w.add(1, geom.Pt(0.5, 0.5))
	if _, _, err := w.mon.RegisterRange(1, geom.R(0, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.mon.RegisterRange(1, geom.R(0, 0, 1, 1)); err == nil {
		t.Fatal("duplicate registration must fail")
	}
	if _, _, err := w.mon.RegisterKNN(1, geom.Pt(0, 0), 1, true); err == nil {
		t.Fatal("duplicate registration must fail across kinds")
	}
}

func TestDeregister(t *testing.T) {
	w := newWorld(t, Options{})
	w.add(1, geom.Pt(0.5, 0.5))
	if _, _, err := w.mon.RegisterRange(9, geom.R(0, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if !w.mon.Deregister(9) {
		t.Fatal("deregister failed")
	}
	if w.mon.Deregister(9) {
		t.Fatal("double deregister must report false")
	}
	if w.mon.NumQueries() != 0 {
		t.Fatalf("NumQueries = %d", w.mon.NumQueries())
	}
}

// --- the paper's central claim: exact monitoring under the protocol -----------

// runAccuracySim drives a full random workload and asserts at every step that
// the monitored results are identical to ground truth — the 100 % accuracy
// the framework guarantees with zero communication delay.
func runAccuracySim(t *testing.T, opt Options, seed int64, nObj, nRange, nKNN, steps int) {
	rng := rand.New(rand.NewSource(seed))
	w := newWorld(t, opt)
	for i := 0; i < nObj; i++ {
		w.add(uint64(i), geom.Pt(rng.Float64(), rng.Float64()))
	}
	type regQ struct {
		id   query.ID
		kind query.Kind
		rect geom.Rect
		pt   geom.Point
		k    int
		sens bool
	}
	var qs []regQ
	for i := 0; i < nRange; i++ {
		x, y := rng.Float64()*0.9, rng.Float64()*0.9
		q := regQ{id: query.ID(i), kind: query.KindRange, rect: geom.R(x, y, x+0.02+rng.Float64()*0.1, y+0.02+rng.Float64()*0.1)}
		_, ups, err := w.mon.RegisterRange(q.id, q.rect)
		if err != nil {
			t.Fatal(err)
		}
		w.apply(ups)
		qs = append(qs, q)
	}
	for i := 0; i < nKNN; i++ {
		q := regQ{
			id:   query.ID(nRange + i),
			kind: query.KindKNN,
			pt:   geom.Pt(rng.Float64(), rng.Float64()),
			k:    1 + rng.Intn(5),
			sens: i%2 == 0,
		}
		_, ups, err := w.mon.RegisterKNN(q.id, q.pt, q.k, q.sens)
		if err != nil {
			t.Fatal(err)
		}
		w.apply(ups)
		qs = append(qs, q)
	}

	check := func(step int) {
		for _, q := range qs {
			got, ok := w.mon.Results(q.id)
			if !ok {
				t.Fatalf("query %d vanished", q.id)
			}
			switch {
			case q.kind == query.KindRange:
				want := w.bruteRange(q.rect)
				if !equalSeq(sortedCopy(got), want) {
					t.Fatalf("step %d query %d (range %v): got %v want %v", step, q.id, q.rect, sortedCopy(got), want)
				}
			case q.sens:
				want := w.bruteKNN(q.pt, q.k)
				if !equalSeq(got, want) {
					t.Fatalf("step %d query %d (kNN k=%d at %v): got %v want %v", step, q.id, q.k, q.pt, got, want)
				}
			default:
				want := w.bruteKNN(q.pt, q.k)
				if !equalSeq(sortedCopy(got), sortedCopy(want)) {
					t.Fatalf("step %d query %d (set-kNN k=%d): got %v want %v", step, q.id, q.k, sortedCopy(got), sortedCopy(want))
				}
			}
		}
	}
	check(-1)

	for step := 0; step < steps; step++ {
		w.mon.SetTime(float64(step) * 0.01)
		// Move a random subset of *distinct* objects by small random
		// displacements; each movement is handled before the next starts
		// (sequential model). Distinctness matters: moving the same object
		// twice within one zero-duration step would mean infinite
		// instantaneous speed, violating the MaxSpeed assumption behind the
		// reachability-circle enhancement.
		perm := rng.Perm(nObj)
		for mv := 0; mv < nObj/4+1; mv++ {
			id := uint64(perm[mv])
			p := w.pos[id]
			np := geom.Pt(
				clamp01(p.X+(rng.Float64()-0.5)*0.05),
				clamp01(p.Y+(rng.Float64()-0.5)*0.05),
			)
			w.move(id, np)
		}
		check(step)
	}
	if err := w.mon.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func TestExactMonitoringMixedWorkload(t *testing.T) {
	runAccuracySim(t, Options{GridM: 10}, 42, 120, 8, 8, 60)
}

func TestExactMonitoringDenseQueries(t *testing.T) {
	runAccuracySim(t, Options{GridM: 20}, 7, 60, 20, 20, 40)
}

func TestExactMonitoringWithMaxSpeed(t *testing.T) {
	// The reachability circle must never alter correctness, only reduce
	// probes. MaxSpeed is deliberately generous versus the ~0.05 step size.
	runAccuracySim(t, Options{GridM: 10, MaxSpeed: 10}, 13, 100, 6, 6, 50)
}

func TestExactMonitoringWithSteadyMovement(t *testing.T) {
	runAccuracySim(t, Options{GridM: 10, Steadiness: 0.5}, 17, 100, 6, 6, 50)
}

func TestExactMonitoringPerQueryStrips(t *testing.T) {
	runAccuracySim(t, Options{GridM: 10, DisableBatchRange: true}, 19, 80, 12, 4, 40)
}

func TestExactMonitoringGreedyBatch(t *testing.T) {
	runAccuracySim(t, Options{GridM: 10, GreedyBatch: true}, 23, 80, 12, 4, 40)
}

func TestExactMonitoringSmallPopulationKNN(t *testing.T) {
	// Fewer objects than k exercises the degenerate quarantine radius.
	runAccuracySim(t, Options{GridM: 5}, 29, 3, 2, 6, 40)
}

// --- object arrival and departure ---------------------------------------------

func TestAddRemoveObjectsRepairResults(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := newWorld(t, Options{GridM: 10})
	for i := 0; i < 50; i++ {
		w.add(uint64(i), geom.Pt(rng.Float64(), rng.Float64()))
	}
	rect := geom.R(0.3, 0.3, 0.7, 0.7)
	qp := geom.Pt(0.5, 0.5)
	_, ups, err := w.mon.RegisterRange(1, rect)
	if err != nil {
		t.Fatal(err)
	}
	w.apply(ups)
	_, ups, err = w.mon.RegisterKNN(2, qp, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	w.apply(ups)

	for step := 0; step < 200; step++ {
		switch rng.Intn(3) {
		case 0: // add
			id := uint64(1000 + step)
			w.add(id, geom.Pt(rng.Float64(), rng.Float64()))
		case 1: // remove a random live object
			ids := make([]uint64, 0, len(w.pos))
			for id := range w.pos {
				ids = append(ids, id)
			}
			if len(ids) <= 4 {
				continue
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			id := ids[rng.Intn(len(ids))]
			delete(w.pos, id)
			delete(w.safe, id)
			w.apply(w.mon.RemoveObject(id))
		default: // move
			ids := make([]uint64, 0, len(w.pos))
			for id := range w.pos {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			id := ids[rng.Intn(len(ids))]
			p := w.pos[id]
			w.move(id, geom.Pt(clamp01(p.X+(rng.Float64()-0.5)*0.1), clamp01(p.Y+(rng.Float64()-0.5)*0.1)))
		}
		got1, _ := w.mon.Results(1)
		if !equalSeq(sortedCopy(got1), w.bruteRange(rect)) {
			t.Fatalf("step %d: range drifted", step)
		}
		got2, _ := w.mon.Results(2)
		if !equalSeq(got2, w.bruteKNN(qp, 3)) {
			t.Fatalf("step %d: kNN drifted: got %v want %v", step, got2, w.bruteKNN(qp, 3))
		}
	}
	if err := w.mon.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveUnknownObject(t *testing.T) {
	w := newWorld(t, Options{})
	if got := w.mon.RemoveObject(99); got != nil {
		t.Fatalf("RemoveObject on unknown id: %v", got)
	}
}

// --- result reporting ----------------------------------------------------------

func TestResultUpdatesPublished(t *testing.T) {
	var events []ResultUpdate
	pos := map[uint64]geom.Point{1: geom.Pt(0.1, 0.1)}
	mon := New(Options{GridM: 10}, ProberFunc(func(id uint64) geom.Point { return pos[id] }),
		func(u ResultUpdate) { events = append(events, u) })
	safe := map[uint64]geom.Rect{}
	apply := func(us []SafeRegionUpdate) {
		for _, u := range us {
			safe[u.Object] = u.Region
		}
	}
	apply(mon.AddObject(1, pos[1]))
	if _, _, err := mon.RegisterRange(7, geom.R(0.4, 0.4, 0.6, 0.6)); err != nil {
		t.Fatal(err)
	}
	// Move into the rectangle: one result change must be published.
	pos[1] = geom.Pt(0.5, 0.5)
	apply(mon.Update(1, pos[1]))
	if len(events) != 1 || events[0].Query != 7 || len(events[0].Results) != 1 || events[0].Results[0] != 1 {
		t.Fatalf("events = %+v", events)
	}
	// Move within the rectangle: no new publication.
	pos[1] = geom.Pt(0.55, 0.5)
	apply(mon.Update(1, pos[1]))
	if len(events) != 1 {
		t.Fatalf("movement inside the quarantine published: %+v", events)
	}
	// Move out: one more publication with empty results.
	pos[1] = geom.Pt(0.9, 0.9)
	apply(mon.Update(1, pos[1]))
	if len(events) != 2 || len(events[1].Results) != 0 {
		t.Fatalf("events = %+v", events)
	}
}

// --- probe behavior -------------------------------------------------------------

func TestLazyProbesOnlyWhenAmbiguous(t *testing.T) {
	// Objects far from the query rectangle must not be probed at all.
	pos := map[uint64]geom.Point{}
	mon := New(Options{GridM: 10}, ProberFunc(func(id uint64) geom.Point { return pos[id] }), nil)
	for i := 0; i < 20; i++ {
		p := geom.Pt(0.05+float64(i)*0.001, 0.05)
		pos[uint64(i)] = p
		mon.AddObject(uint64(i), p)
	}
	if _, _, err := mon.RegisterRange(1, geom.R(0.8, 0.8, 0.9, 0.9)); err != nil {
		t.Fatal(err)
	}
	if got := mon.Stats().Probes; got != 0 {
		t.Fatalf("distant range query issued %d probes", got)
	}
}

func TestReachabilityCircleAvoidsProbes(t *testing.T) {
	// Freshly updated objects have tiny reachability circles; a range query
	// partially overlapping their (stale, larger) safe regions can resolve
	// membership without probing.
	rng := rand.New(rand.NewSource(31))
	build := func(maxSpeed float64) Stats {
		w := newWorld(t, Options{GridM: 5, MaxSpeed: maxSpeed})
		for i := 0; i < 300; i++ {
			w.add(uint64(i), geom.Pt(rng.Float64(), rng.Float64()))
		}
		// One broad query gives everyone fat safe regions… then more queries
		// cut across them.
		w.mon.SetTime(0.001)
		for trial := 0; trial < 25; trial++ {
			x, y := rng.Float64()*0.8, rng.Float64()*0.8
			if _, _, err := w.mon.RegisterRange(query.ID(trial), geom.R(x, y, x+0.2, y+0.2)); err != nil {
				t.Fatal(err)
			}
		}
		return w.mon.Stats()
	}
	rng = rand.New(rand.NewSource(31))
	with := build(0.001) // slow objects: circles stay small
	rng = rand.New(rand.NewSource(31))
	without := build(0)
	if with.Probes >= without.Probes {
		t.Fatalf("reachability circle did not reduce probes: with=%d without=%d", with.Probes, without.Probes)
	}
	if with.ProbesAvoided == 0 {
		t.Fatal("expected some probes avoided")
	}
}

func TestStatsCounters(t *testing.T) {
	w := newWorld(t, Options{GridM: 10})
	w.add(1, geom.Pt(0.2, 0.2))
	w.add(2, geom.Pt(0.8, 0.8))
	if _, _, err := w.mon.RegisterKNN(1, geom.Pt(0.5, 0.5), 1, true); err != nil {
		t.Fatal(err)
	}
	s := w.mon.Stats()
	if s.NewQueryEvals != 1 {
		t.Fatalf("NewQueryEvals = %d", s.NewQueryEvals)
	}
	w.move(1, geom.Pt(0.9, 0.2)) // leaves its safe region eventually
	s = w.mon.Stats()
	if s.SourceUpdates == 0 {
		t.Fatal("expected at least one source update")
	}
	if s.SafeRegionsBuilt == 0 {
		t.Fatal("expected safe region computations")
	}
}

// --- accessors -------------------------------------------------------------------

func TestAccessors(t *testing.T) {
	w := newWorld(t, Options{})
	w.add(5, geom.Pt(0.3, 0.4))
	if n := w.mon.NumObjects(); n != 1 {
		t.Fatalf("NumObjects = %d", n)
	}
	if p, ok := w.mon.LastReported(5); !ok || p != geom.Pt(0.3, 0.4) {
		t.Fatalf("LastReported = %v,%v", p, ok)
	}
	if _, ok := w.mon.LastReported(6); ok {
		t.Fatal("unknown object")
	}
	sr, ok := w.mon.SafeRegion(5)
	if !ok || !sr.Contains(geom.Pt(0.3, 0.4)) {
		t.Fatalf("SafeRegion = %v,%v", sr, ok)
	}
	if _, ok := w.mon.SafeRegion(6); ok {
		t.Fatal("unknown object safe region")
	}
	if _, ok := w.mon.Results(99); ok {
		t.Fatal("unknown query results")
	}
	if _, ok := w.mon.Query(99); ok {
		t.Fatal("unknown query")
	}
	if _, _, err := w.mon.RegisterRange(3, geom.R(0, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if q, ok := w.mon.Query(3); !ok || q.Kind != query.KindRange {
		t.Fatal("Query accessor failed")
	}
	if w.mon.Now() != 0 {
		t.Fatalf("Now = %v", w.mon.Now())
	}
	w.mon.SetTime(4.5)
	if w.mon.Now() != 4.5 {
		t.Fatalf("Now = %v", w.mon.Now())
	}
}

// --- aggregate COUNT queries (Section 8 extension) -----------------------------

func TestCountQueryTracksOccupancy(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	var events []ResultUpdate
	w := newWorld(t, Options{GridM: 10})
	w.mon = New(Options{GridM: 10}, ProberFunc(func(id uint64) geom.Point { return w.pos[id] }),
		func(u ResultUpdate) { events = append(events, u) })
	for i := 0; i < 60; i++ {
		w.add(uint64(i), geom.Pt(rng.Float64(), rng.Float64()))
	}
	rect := geom.R(0.3, 0.3, 0.7, 0.7)
	count, ups, err := w.mon.RegisterCount(77, rect)
	if err != nil {
		t.Fatal(err)
	}
	w.apply(ups)
	if want := len(w.bruteRange(rect)); count != want {
		t.Fatalf("initial count = %d, want %d", count, want)
	}
	for step := 0; step < 120; step++ {
		id := uint64(rng.Intn(60))
		p := w.pos[id]
		w.move(id, geom.Pt(clamp01(p.X+(rng.Float64()-0.5)*0.2), clamp01(p.Y+(rng.Float64()-0.5)*0.2)))
		got, _ := w.mon.Results(77)
		if len(got) != len(w.bruteRange(rect)) {
			t.Fatalf("step %d: monitored count %d, want %d", step, len(got), len(w.bruteRange(rect)))
		}
	}
	if len(events) == 0 {
		t.Fatal("expected count-change events")
	}
	for _, e := range events {
		if e.Query != 77 {
			continue
		}
		if e.Results != nil {
			t.Fatalf("aggregate query leaked member IDs: %+v", e)
		}
	}
}

func TestCountQueryDuplicateID(t *testing.T) {
	w := newWorld(t, Options{})
	if _, _, err := w.mon.RegisterCount(1, geom.R(0, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.mon.RegisterCount(1, geom.R(0, 0, 1, 1)); err == nil {
		t.Fatal("duplicate must fail")
	}
	if !w.mon.Deregister(1) {
		t.Fatal("deregister")
	}
}

// --- within-distance (circular range) queries ----------------------------------

func TestCircleQueryExactMonitoring(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	w := newWorld(t, Options{GridM: 10})
	for i := 0; i < 150; i++ {
		w.add(uint64(i), geom.Pt(rng.Float64(), rng.Float64()))
	}
	type cq struct {
		id     query.ID
		center geom.Point
		radius float64
	}
	var qs []cq
	for i := 0; i < 6; i++ {
		q := cq{query.ID(i + 1), geom.Pt(rng.Float64(), rng.Float64()), 0.05 + rng.Float64()*0.15}
		res, ups, err := w.mon.RegisterWithinDistance(q.id, q.center, q.radius)
		if err != nil {
			t.Fatal(err)
		}
		w.apply(ups)
		want := w.bruteCircle(q.center, q.radius)
		if !equalSeq(sortedCopy(res), want) {
			t.Fatalf("initial circle results: got %v want %v", sortedCopy(res), want)
		}
		qs = append(qs, q)
	}
	for step := 0; step < 60; step++ {
		w.mon.SetTime(float64(step) * 0.01)
		perm := rng.Perm(150)
		for mv := 0; mv < 40; mv++ {
			id := uint64(perm[mv])
			p := w.pos[id]
			w.move(id, geom.Pt(clamp01(p.X+(rng.Float64()-0.5)*0.05), clamp01(p.Y+(rng.Float64()-0.5)*0.05)))
		}
		for _, q := range qs {
			got, _ := w.mon.Results(q.id)
			want := w.bruteCircle(q.center, q.radius)
			if !equalSeq(sortedCopy(got), want) {
				t.Fatalf("step %d query %d: got %v want %v", step, q.id, sortedCopy(got), want)
			}
		}
	}
	if err := w.mon.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func (w *world) bruteCircle(c geom.Point, r float64) []uint64 {
	var out []uint64
	for id, p := range w.pos {
		if p.Dist(c) <= r {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestCircleQueryMixedWithOthers(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	w := newWorld(t, Options{GridM: 8})
	for i := 0; i < 100; i++ {
		w.add(uint64(i), geom.Pt(rng.Float64(), rng.Float64()))
	}
	_, ups, err := w.mon.RegisterWithinDistance(1, geom.Pt(0.5, 0.5), 0.15)
	if err != nil {
		t.Fatal(err)
	}
	w.apply(ups)
	_, ups, err = w.mon.RegisterKNN(2, geom.Pt(0.5, 0.5), 3, true)
	if err != nil {
		t.Fatal(err)
	}
	w.apply(ups)
	_, ups, err = w.mon.RegisterRange(3, geom.R(0.4, 0.4, 0.6, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	w.apply(ups)
	for step := 0; step < 50; step++ {
		w.mon.SetTime(float64(step) * 0.01)
		perm := rng.Perm(100)
		for mv := 0; mv < 25; mv++ {
			id := uint64(perm[mv])
			p := w.pos[id]
			w.move(id, geom.Pt(clamp01(p.X+(rng.Float64()-0.5)*0.04), clamp01(p.Y+(rng.Float64()-0.5)*0.04)))
		}
		got1, _ := w.mon.Results(1)
		if !equalSeq(sortedCopy(got1), w.bruteCircle(geom.Pt(0.5, 0.5), 0.15)) {
			t.Fatalf("step %d: circle drifted", step)
		}
		got2, _ := w.mon.Results(2)
		if !equalSeq(got2, w.bruteKNN(geom.Pt(0.5, 0.5), 3)) {
			t.Fatalf("step %d: knn drifted", step)
		}
		got3, _ := w.mon.Results(3)
		if !equalSeq(sortedCopy(got3), w.bruteRange(geom.R(0.4, 0.4, 0.6, 0.6))) {
			t.Fatalf("step %d: range drifted", step)
		}
	}
}

func TestCircleQueryDuplicateAndDeregister(t *testing.T) {
	w := newWorld(t, Options{})
	if _, _, err := w.mon.RegisterWithinDistance(1, geom.Pt(0.5, 0.5), 0.1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.mon.RegisterWithinDistance(1, geom.Pt(0.1, 0.1), 0.1); err == nil {
		t.Fatal("duplicate must fail")
	}
	if !w.mon.Deregister(1) {
		t.Fatal("deregister")
	}
}

// TestProbeAfterProbingAddObjectIsSettled checks that a probe of an object
// is settled (its revealed movement reevaluates the queries it affects) in an
// op that follows a probing AddObject of that object. The AddObject settles
// the objects it probed but not the newcomer, its primary; nothing of that
// exclusion may carry over to later ops. Here object 1 joins next to a 1NN
// query, which probes object 2 to order the two; a range registration then
// probes object 1 and finds it far away, and the kNN query must follow it
// back to object 2.
func TestProbeAfterProbingAddObjectIsSettled(t *testing.T) {
	at := map[uint64]geom.Point{1: geom.Pt(58, 50), 2: geom.Pt(60, 50)}
	m := New(Options{Space: geom.R(0, 0, 100, 100)}, ProberFunc(func(id uint64) geom.Point { return at[id] }), nil)
	m.AddObject(2, at[2])
	if _, _, err := m.RegisterKNN(1, geom.Pt(50, 50), 1, true); err != nil {
		t.Fatal(err)
	}
	// Widen object 2's region so that object 1's arrival is ambiguous.
	st := m.objects[2]
	st.safe = geom.R(55, 45, 65, 55)
	m.tree.Update(2, st.safe)

	probes := m.Stats().Probes
	m.AddObject(1, at[1])
	if m.Stats().Probes == probes {
		t.Fatal("AddObject(1) probed nothing: the scenario needs a probing AddObject")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if res, _ := m.Results(1); !equalSeq(res, []uint64{1}) {
		t.Fatalf("1NN result %v after object 1 joined, want [1]", res)
	}

	// Object 1's region, [58, 58.11]x[50, 52], straddles x = 58.05.
	at[1] = geom.Pt(70, 90)
	probes = m.Stats().Probes
	res, _, err := m.RegisterRange(2, geom.R(58.05, 0, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats().Probes == probes {
		t.Fatal("RegisterRange probed nothing: the scenario needs object 1 probed")
	}
	if !equalSeq(res, []uint64{1, 2}) {
		t.Fatalf("range result %v, want [1 2]", res)
	}
	if res, _ := m.Results(1); !equalSeq(res, []uint64{2}) {
		t.Fatalf("1NN result %v after object 1's probe revealed it at %v, want [2]", res, at[1])
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
