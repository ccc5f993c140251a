package parallel_test

import (
	"testing"

	"srb/internal/core"
	"srb/internal/geom"
	"srb/internal/parallel"
	"srb/internal/query"
)

// TestApplyAllocs pins one conflict-free Pipeline.Apply of 128 updates on
// two plan workers. Each of the 128 movers sits in its own grid cell beside a
// range query that constrains its safe region without ever containing it, so
// every update is planned and applied on the fast path.
func TestApplyAllocs(t *testing.T) {
	if allocsInflated {
		t.Skip("allocation counts are inflated under the race detector and srbdebug")
	}
	const n = 128
	mon := core.New(core.Options{Space: geom.R(0, 0, 100, 100)}, core.ProberFunc(func(id uint64) geom.Point {
		t.Fatalf("object %d probed: the workload must not probe", id)
		return geom.Point{}
	}), nil)
	var batches [2][]parallel.Update
	for i := 0; i < n; i++ {
		// Cells are 2×2; the mover alternates between two points in the
		// lower-left of its cell, the query covers the upper-right corner.
		x, y := 2*float64(i%32), 2*float64(i/32)
		id := uint64(i + 1)
		if _, _, err := mon.RegisterRange(query.ID(id), geom.R(x+1.5, y+1.5, x+1.9, y+1.9)); err != nil {
			t.Fatal(err)
		}
		mon.AddObject(id, geom.Pt(x+0.2, y+0.2))
		batches[0] = append(batches[0], parallel.Update{ID: id, Loc: geom.Pt(x+0.6, y+0.6)})
		batches[1] = append(batches[1], parallel.Update{ID: id, Loc: geom.Pt(x+0.2, y+0.2)})
	}
	p := parallel.New(mon, 2)
	k := 0
	apply := func() {
		p.Apply(batches[k%2])
		k++
	}
	for i := 0; i < 16; i++ {
		apply()
	}
	before := p.Stats()
	got := testing.AllocsPerRun(50, apply)
	if st := p.Stats(); st.Fast-before.Fast != st.Updates-before.Updates {
		t.Fatalf("only %d of %d updates took the fast path", st.Fast-before.Fast, st.Updates-before.Updates)
	}
	// Per update: the slice ApplyPlanned returns and the plan's snapshot of
	// its relevant queries. Per batch: Apply's output slice, the order,
	// plannable, plans and planned slices, the plan closure, the worker
	// pool's counter and WaitGroup, and one closure per worker.
	const want = 2*n + 8 + 2
	if int(got) != want {
		t.Errorf("Pipeline.Apply of %d conflict-free updates allocates %.1f objects, want exactly %d", n, got, want)
	}
}
