package core

import (
	"runtime"
	"testing"

	"srb/internal/geom"
	"srb/internal/query"
)

// allocWorkload builds the steady-state scenario the allochot baseline is
// about: a populated monitor with live queries, and one object far from every
// quarantine area reporting conflict-free movement. Returns the monitor and
// the two positions the object alternates between.
func allocWorkload(tb testing.TB) (*Monitor, uint64, [2]geom.Point) {
	tb.Helper()
	m := New(Options{Space: geom.R(0, 0, 100, 100)}, ProberFunc(func(id uint64) geom.Point {
		return geom.Pt(float64(id), float64(id))
	}), nil)
	for id := uint64(1); id <= 32; id++ {
		m.AddObject(id, geom.Pt(float64(id), float64(id)))
	}
	if _, _, err := m.RegisterRange(query.ID(1), geom.R(0, 0, 10, 10)); err != nil {
		tb.Fatal(err)
	}
	if _, _, err := m.RegisterKNN(query.ID(2), geom.Pt(5, 5), 3, true); err != nil {
		tb.Fatal(err)
	}
	// Object 90 lives in the far corner, outside every quarantine area and
	// every result; its updates take the conflict-free path.
	const mover = uint64(90)
	m.AddObject(mover, geom.Pt(90, 90))
	locs := [2]geom.Point{geom.Pt(90, 90), geom.Pt(92, 92)}
	// Warm up so per-object state and index nodes exist before measuring.
	for i := 0; i < 4; i++ {
		m.Update(mover, locs[i%2])
	}
	return m, mover, locs
}

// wantAllocs warms f up, then fails unless every call allocates exactly want
// objects. The warm-up lets result lists, grid buckets and the monitor's
// per-op scratch reach their steady capacity, so the count does not depend on
// how a map or slice grows.
func wantAllocs(t *testing.T, what string, want int, f func()) {
	t.Helper()
	if raceEnabled || debugInvariants {
		t.Skip("allocation counts are inflated under the race detector and srbdebug")
	}
	for i := 0; i < 16; i++ {
		f()
	}
	if got := testing.AllocsPerRun(200, f); int(got) != want {
		t.Errorf("%s allocates %.1f objects per call, want exactly %d; "+
			"a new hot-path allocation site must be justified and baselined (lint/allochot.baseline)", what, got, want)
	}
}

// TestUpdateAllocsBound pins the sequential hot path: a steady-state
// conflict-free Monitor.Update allocates exactly one object, the
// []SafeRegionUpdate it returns. The per-op bookkeeping is monitor-owned
// scratch and the safe-region scratch lives on the stack. The companion
// inventory of the sites that may still allocate lives in
// lint/allochot.baseline.
func TestUpdateAllocsBound(t *testing.T) {
	m, mover, locs := allocWorkload(t)
	i := 0
	wantAllocs(t, "steady-state conflict-free Update", 1, func() {
		m.Update(mover, locs[i%2])
		i++
	})
}

// TestRangeFlipAllocs pins an Update that changes a range result: object 90
// alternates between a point inside query 1's rectangle and one outside it,
// so every update enters or leaves that result. Each call allocates only the
// returned slice: the monitor has no subscriber, so publishing the change
// builds no copy of query 1's result. Query 2 covers both points and keeps
// object 90 a result throughout, so its reverse-index entry is never dropped
// and re-made.
func TestRangeFlipAllocs(t *testing.T) {
	m := New(Options{Space: geom.R(0, 0, 100, 100)}, ProberFunc(func(id uint64) geom.Point {
		t.Fatalf("object %d probed: the workload must not probe", id)
		return geom.Point{}
	}), nil)
	m.AddObject(1, geom.Pt(50, 50))
	const mover = uint64(90)
	locs := [2]geom.Point{geom.Pt(55, 55), geom.Pt(65, 65)}
	m.AddObject(mover, locs[1])
	if _, _, err := m.RegisterRange(1, geom.R(40, 40, 60, 60)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.RegisterRange(2, geom.R(30, 30, 70, 70)); err != nil {
		t.Fatal(err)
	}
	i := 0
	wantAllocs(t, "a range Update entering or leaving a result", 1, func() {
		m.Update(mover, locs[i%2])
		i++
	})
	if res, _ := m.Results(1); len(res) != 1+i%2 {
		t.Fatalf("query 1 holds %v after %d flips", res, i)
	}
}

// TestKNNRefillUpdateAllocs pins a kNN case-1 refill driven through Update.
// Object 1, the nearest neighbour of an order-sensitive 3NN query, leaves
// the quarantine circle (case 1: the refill finds object 4) and then returns
// (case 2: it displaces object 4 again). Per round trip that is two returned
// slices and the refill search's one-element result; with no subscriber, the
// two result changes publish no copy. The range query takes the place of the workload's second kNN
// query: it covers both of object 1's positions, so object 1's reverse-index
// entry survives the round trip.
func TestKNNRefillUpdateAllocs(t *testing.T) {
	m, q := knnSearchWorkload(t)
	m.Deregister(2)
	if _, _, err := m.RegisterRange(3, geom.R(0.5, -1, 50.5, 31)); err != nil {
		t.Fatal(err)
	}
	want := append([]uint64(nil), q.Results...)
	cases := m.Stats().KNNCases
	wantAllocs(t, "a kNN case-1 refill and re-entry through Update", 3, func() {
		m.Update(1, geom.Pt(50, 30))
		m.Update(1, geom.Pt(1, 0))
	})
	if !equalSeq(q.Results, want) {
		t.Fatalf("round trip changed the result: %v, want %v", q.Results, want)
	}
	if got := m.Stats().KNNCases; got[0] == cases[0] || got[1] == cases[1] {
		t.Fatalf("round trips took kNN cases %v (from %v), want both case 1 and case 2", got, cases)
	}
}

// TestRemoveObjectCostIgnoresUnrelatedQueries checks that RemoveObject
// repairs only the queries its object is a result of: a remove-and-re-add
// cycle of object 1, a member of one range query, allocates the same objects
// and bytes with 10 and with 1,000 unrelated queries registered far away.
func TestRemoveObjectCostIgnoresUnrelatedQueries(t *testing.T) {
	if raceEnabled || debugInvariants {
		t.Skip("allocation counts are inflated under the race detector and srbdebug")
	}
	cycle := func(unrelated int) (allocs, bytes uint64) {
		m := New(Options{Space: geom.R(0, 0, 100, 100)}, ProberFunc(func(id uint64) geom.Point {
			t.Fatalf("object %d probed: the workload must not probe", id)
			return geom.Point{}
		}), nil)
		at := geom.Pt(10, 10)
		m.AddObject(1, at)
		m.AddObject(2, geom.Pt(20, 20))
		if _, _, err := m.RegisterRange(1, geom.R(5, 5, 15, 15)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < unrelated; i++ {
			x := 60 + float64(i%30)
			y := 60 + float64(i/30)
			if _, _, err := m.RegisterRange(query.ID(100+i), geom.R(x, y, x+0.5, y+0.5)); err != nil {
				t.Fatal(err)
			}
		}
		f := func() {
			m.RemoveObject(1)
			m.AddObject(1, at)
		}
		for i := 0; i < 16; i++ {
			f()
		}
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	fewA, fewB := cycle(10)
	manyA, manyB := cycle(1000)
	if fewA != manyA || fewB != manyB {
		t.Errorf("remove-and-re-add allocates %d objects (%d B) with 10 unrelated queries, %d (%d B) with 1,000: "+
			"RemoveObject must not walk every registered query", fewA, fewB, manyA, manyB)
	}
}

// BenchmarkUpdateAllocs reports the sequential Update path's per-call
// allocation profile (run with -benchmem).
func BenchmarkUpdateAllocs(b *testing.B) {
	m, mover, locs := allocWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Update(mover, locs[i%2])
	}
}

// knnSearchWorkload builds a monitor whose kNN searches never probe: 64
// objects on a line at distances 1..64 from the query point, each with a
// safe region of ±0.2, so consecutive distance intervals never overlap.
// Two identical order-sensitive 3NN queries share the result set, which
// keeps every result's reverse-index entry alive when one query drops and
// refills its k-th neighbour. Returns the monitor and the query to refill.
func knnSearchWorkload(tb testing.TB) (*Monitor, *query.Query) {
	tb.Helper()
	m := New(Options{Space: geom.R(-100, -100, 100, 100)}, ProberFunc(func(id uint64) geom.Point {
		tb.Fatalf("object %d probed: the workload must not probe", id)
		return geom.Point{}
	}), nil)
	for id := uint64(1); id <= 64; id++ {
		m.AddObject(id, geom.Pt(float64(id), 0))
		st := m.objects[id]
		st.safe = geom.R(float64(id)-0.2, -0.2, float64(id)+0.2, 0.2)
		m.tree.Update(id, st.safe)
	}
	for _, qid := range []query.ID{1, 2} {
		if _, _, err := m.RegisterKNN(qid, geom.Pt(0, 0), 3, true); err != nil {
			tb.Fatal(err)
		}
	}
	q, _ := m.Query(1)
	return m, q
}

// refillOnce drops q's k-th neighbour and runs the case-1 refill that finds
// it again: one constrained 1NN search plus the result bookkeeping.
func refillOnce(m *Monitor, q *query.Query) {
	m.removeResultID(q, q.Results[len(q.Results)-1])
	m.refillKNN(q)
}

// TestKNNSearchAllocs pins the best-first search's allocations: a warm
// case-1 refill allocates only the one-element result slice of its
// constrained 1NN search. The frontier, the expansion and the exclude set
// (the query's own result list) allocate nothing.
func TestKNNSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	m, q := knnSearchWorkload(t)
	refillOnce(m, q)
	want := append([]uint64(nil), q.Results...)
	avg := testing.AllocsPerRun(200, func() { refillOnce(m, q) })
	if !equalSeq(q.Results, want) {
		t.Fatalf("refill changed the result: %v, want %v", q.Results, want)
	}
	const bound = 1.0
	if avg > bound {
		t.Errorf("warm kNN refill allocates %.1f objects per call, budget %.0f (the result slice)", avg, bound)
	}
}

// searchSink keeps BenchmarkKNNSearch's results live.
var searchSink []uint64

// BenchmarkKNNSearch reports the best-first search's own ns and allocation
// profile (run with -benchmem): the warm case-1 refill, and full 10NN
// evaluations in both variants.
func BenchmarkKNNSearch(b *testing.B) {
	b.Run("refill", func(b *testing.B) {
		m, q := knnSearchWorkload(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			refillOnce(m, q)
		}
	})
	for _, sensitive := range []bool{true, false} {
		name := "insensitive-10"
		if sensitive {
			name = "sensitive-10"
		}
		b.Run(name, func(b *testing.B) {
			m, _ := knnSearchWorkload(b)
			qp := geom.Pt(0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sensitive {
					searchSink, _, _ = m.knnOrderSensitive(qp, 10, nil)
				} else {
					searchSink, _, _ = m.knnOrderInsensitive(qp, 10, nil)
				}
			}
		})
	}
}
