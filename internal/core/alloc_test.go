package core

import (
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

// TestUpdateAllocsBound ratchets the sequential hot path: a steady-state
// conflict-free Monitor.Update must stay within a fixed allocation budget.
// The bound is deliberately loose (~2x the measured steady state) so it
// catches regressions that add allocation sites or per-call slices, not
// noise; tightening it is the ROADMAP allocation-reduction work. The
// companion inventory lives in lint/allochot.baseline.
func TestUpdateAllocsBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	m, mover, locs := allocWorkload(t)
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		m.Update(mover, locs[i%2])
		i++
	})
	const bound = 40.0
	if avg > bound {
		t.Errorf("steady-state Update allocates %.1f objects per call, budget %.0f; "+
			"new hot-path allocation sites must be justified and baselined (lint/allochot.baseline)", avg, bound)
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
