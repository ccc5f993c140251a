// Ablation benchmarks for the design choices called out in DESIGN.md and
// micro-benchmarks of the hot paths. The paper's tables and figures are
// reproduced by cmd/srb-sim (`make repro`), not here.
package srb_test

import (
	"math/rand"
	"sort"
	"testing"

	"srb"
	"srb/internal/geom"
	"srb/internal/mobility"
	"srb/internal/obs"
	"srb/internal/parallel"
	"srb/internal/rtree"
	"srb/internal/saferegion"
	"srb/internal/sim"
)

// benchConfig is the compact scale of the simulator ablations.
func benchConfig() sim.Config {
	c := sim.Default()
	c.N = 400
	c.W = 16
	c.Duration = 2
	c.GridM = 12
	return c
}

// --- Ablations -----------------------------------------------------------------

// BenchmarkAblationBatchSafeRegion compares the Section 5.3 batch range
// safe-region computation against per-query strip intersection.
func BenchmarkAblationBatchSafeRegion(b *testing.B) {
	run := func(b *testing.B, disable bool) {
		var cost float64
		for i := 0; i < b.N; i++ {
			c := benchConfig()
			c.DisableBatchRange = disable
			cost = sim.RunSRB(c).CommPerClientTime
		}
		b.ReportMetric(cost, "cost/client-time")
	}
	b.Run("batch", func(b *testing.B) { run(b, false) })
	b.Run("per-query", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationGreedyBatch compares the exact combination search against
// the paper's greedy union.
func BenchmarkAblationGreedyBatch(b *testing.B) {
	run := func(b *testing.B, greedy bool) {
		var cost float64
		for i := 0; i < b.N; i++ {
			c := benchConfig()
			c.GreedyBatch = greedy
			cost = sim.RunSRB(c).CommPerClientTime
		}
		b.ReportMetric(cost, "cost/client-time")
	}
	b.Run("exact", func(b *testing.B) { run(b, false) })
	b.Run("greedy", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationLazyProbe compares lazy probing (Section 4) against eager
// probing of every ambiguous object during kNN query registration, where the
// hold-until-mandatory technique saves the most probes.
func BenchmarkAblationLazyProbe(b *testing.B) {
	run := func(b *testing.B, eager bool) {
		var probes int64
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(9))
			positions := map[uint64]srb.Point{}
			mon := srb.NewMonitor(srb.Options{GridM: 100, EagerProbes: eager},
				srb.ProberFunc(func(id uint64) srb.Point { return positions[id] }), nil)
			for id := uint64(0); id < 2000; id++ {
				positions[id] = srb.Pt(rng.Float64(), rng.Float64())
				mon.AddObject(id, positions[id])
			}
			for q := 1; q <= 30; q++ {
				if _, _, err := mon.RegisterKNN(srb.QueryID(q), srb.Pt(rng.Float64(), rng.Float64()), 10, true); err != nil {
					b.Fatal(err)
				}
			}
			probes = mon.Stats().Probes
		}
		b.ReportMetric(float64(probes), "probes")
	}
	b.Run("lazy", func(b *testing.B) { run(b, false) })
	b.Run("eager", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationCellNeighborhood measures the Section 7.4 adaptive-cell
// extension.
func BenchmarkAblationCellNeighborhood(b *testing.B) {
	run := func(b *testing.B, r int) {
		var cost float64
		for i := 0; i < b.N; i++ {
			c := benchConfig()
			c.CellNeighborhood = r
			cost = sim.RunSRB(c).CommPerClientTime
		}
		b.ReportMetric(cost, "cost/client-time")
	}
	b.Run("single-cell", func(b *testing.B) { run(b, 0) })
	b.Run("3x3", func(b *testing.B) { run(b, 1) })
}

// BenchmarkAblationBottomUpUpdate compares the R*-tree bottom-up update path
// against delete+reinsert for small movements.
func BenchmarkAblationBottomUpUpdate(b *testing.B) {
	const n = 5000
	build := func() (*rtree.Tree, []geom.Rect) {
		rng := rand.New(rand.NewSource(1))
		tr := rtree.New()
		rects := make([]geom.Rect, n)
		for i := 0; i < n; i++ {
			x, y := rng.Float64(), rng.Float64()
			rects[i] = geom.R(x, y, x+0.01, y+0.01)
			tr.Insert(uint64(i), rects[i])
		}
		tr.Root() // place the buffered items, so updates meet the tree
		return tr, rects
	}
	b.Run("bottom-up", func(b *testing.B) {
		tr, rects := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := uint64(i % n)
			r := rects[id]
			tr.Update(id, geom.R(r.MinX+0.0001, r.MinY+0.0001, r.MaxX, r.MaxY))
		}
	})
	b.Run("delete-insert", func(b *testing.B) {
		tr, rects := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := uint64(i % n)
			r := rects[id]
			tr.Delete(id)
			tr.Insert(id, geom.R(r.MinX+0.0001, r.MinY+0.0001, r.MaxX, r.MaxY))
		}
	})
}

// --- Micro-benchmarks of the hot paths ------------------------------------------

func BenchmarkRTreeSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	tr := rtree.New()
	for i := 0; i < 20000; i++ {
		x, y := rng.Float64(), rng.Float64()
		tr.Insert(uint64(i), geom.R(x, y, x+0.005, y+0.005))
	}
	tr.Root()
	q := geom.R(0.4, 0.4, 0.45, 0.45)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		tr.Search(q, func(rtree.Item) bool { n++; return true })
	}
}

func BenchmarkRTreeKNearest(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tr := rtree.New()
	for i := 0; i < 20000; i++ {
		x, y := rng.Float64(), rng.Float64()
		tr.Insert(uint64(i), geom.R(x, y, x+0.002, y+0.002))
	}
	tr.Root()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.KNearest(geom.Pt(rng.Float64(), rng.Float64()), 10)
	}
}

func BenchmarkIrlpCircle(b *testing.B) {
	c := geom.Circle{Center: geom.Pt(0.5, 0.5), R: 0.2}
	cell := geom.R(0.4, 0.4, 0.6, 0.6)
	p := geom.Pt(0.55, 0.48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		geom.IrlpCircle(c, p, cell, geom.ExitObjective(p))
	}
}

// BenchmarkIrlpCircleComplement is the non-member region of a kNN query, the
// hottest Ir-lp construction on knn-seq. p sits diagonally off the
// quarantine circle, inside neither full-width strip, so the arc family and
// its θ search do the work.
func BenchmarkIrlpCircleComplement(b *testing.B) {
	c := geom.Circle{Center: geom.Pt(0.5, 0.5), R: 0.2}
	cell := geom.R(0.6, 0.6, 0.8, 0.8)
	p := geom.Pt(0.66, 0.66)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		geom.IrlpCircleComplement(c, p, cell, geom.ExitObjective(p))
	}
}

func BenchmarkIrlpRing(b *testing.B) {
	rg := geom.Ring{Center: geom.Pt(0.5, 0.5), Inner: 0.1, Outer: 0.3}
	cell := geom.R(0.3, 0.3, 0.7, 0.7)
	p := geom.Pt(0.5, 0.75)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		geom.IrlpRing(rg, p, cell, geom.ExitObjective(p))
	}
}

func BenchmarkBatchRangeSafeRegion(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	var obstacles []geom.Rect
	p := geom.Pt(0.5, 0.5)
	for len(obstacles) < 12 {
		x, y := rng.Float64(), rng.Float64()
		o := geom.R(x, y, x+0.1, y+0.1)
		if o.Contains(p) {
			continue
		}
		obstacles = append(obstacles, o)
	}
	cell := geom.R(0, 0, 1, 1)
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			saferegion.ForRangeBatch(obstacles, p, cell, geom.ExitObjective(p))
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			saferegion.ForRangeBatchGreedy(obstacles, p, cell, geom.ExitObjective(p))
		}
	})
}

// BenchmarkMonitorUpdate measures a single end-to-end location update against
// a populated server, the per-update CPU cost behind Figure 7.2(a).
func BenchmarkMonitorUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	positions := map[uint64]srb.Point{}
	mon := srb.NewMonitor(srb.Options{GridM: 20}, srb.ProberFunc(func(id uint64) srb.Point {
		return positions[id]
	}), nil)
	const n = 5000
	for i := uint64(0); i < n; i++ {
		positions[i] = srb.Pt(rng.Float64(), rng.Float64())
		mon.AddObject(i, positions[i])
	}
	for q := 1; q <= 20; q++ {
		x, y := rng.Float64()*0.9, rng.Float64()*0.9
		if q%2 == 0 {
			if _, _, err := mon.RegisterRange(srb.QueryID(q), srb.R(x, y, x+0.05, y+0.05)); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, _, err := mon.RegisterKNN(srb.QueryID(q), srb.Pt(x, y), 5, true); err != nil {
				b.Fatal(err)
			}
		}
	}
	walkers := make([]*mobility.Waypoint, n)
	starts := make([]srb.Point, n)
	for i := range walkers {
		starts[i] = positions[uint64(i)]
		walkers[i] = mobility.NewWaypoint(6, uint64(i), srb.R(0, 0, 1, 1), 0.01, 0.1, starts[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i % n)
		t := float64(i) * 0.0005
		mon.SetTime(t)
		np := walkers[id].At(t)
		positions[id] = np
		mon.Update(id, np)
	}
}

// BenchmarkBulkLoadVsInsert compares initial population (relevant at the
// paper's N=100k scale) into an empty tree, which buffers the inserts and
// STR-packs them at the first read, against the same inserts into a tree
// whose first item is already placed, which takes the R* insert path.
func BenchmarkBulkLoadVsInsert(b *testing.B) {
	const n = 20000
	rng := rand.New(rand.NewSource(7))
	items := make([]rtree.Item, n)
	for i := range items {
		x, y := rng.Float64(), rng.Float64()
		items[i] = rtree.Item{ID: uint64(i), Rect: geom.R(x, y, x+0.002, y+0.002)}
	}
	b.Run("bulk-load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := rtree.New()
			for _, it := range items {
				tr.Insert(it.ID, it.Rect)
			}
			tr.Root()
		}
	})
	b.Run("insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := rtree.New()
			for j, it := range items {
				tr.Insert(it.ID, it.Rect)
				if j == 0 {
					tr.Root()
				}
			}
		}
	})
}

// --- Batch update pipeline ------------------------------------------------------

// populateBenchWorld fills a monitor with n walkers and a mixed query load.
// The seeds are fixed so every benchmark variant processes the identical
// update stream.
func populateBenchWorld(b *testing.B, n int, positions map[uint64]srb.Point, mon *srb.Monitor) []*mobility.Waypoint {
	b.Helper()
	rng := rand.New(rand.NewSource(8))
	for i := uint64(0); i < uint64(n); i++ {
		positions[i] = srb.Pt(rng.Float64(), rng.Float64())
		mon.AddObject(i, positions[i])
	}
	for q := 1; q <= 20; q++ {
		x, y := rng.Float64()*0.9, rng.Float64()*0.9
		if q%2 == 0 {
			if _, _, err := mon.RegisterRange(srb.QueryID(q), srb.R(x, y, x+0.05, y+0.05)); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, _, err := mon.RegisterKNN(srb.QueryID(q), srb.Pt(x, y), 5, true); err != nil {
				b.Fatal(err)
			}
		}
	}
	walkers := make([]*mobility.Waypoint, n)
	for i := range walkers {
		walkers[i] = mobility.NewWaypoint(9, uint64(i), srb.R(0, 0, 1, 1), 0.01, 0.1, positions[uint64(i)])
	}
	return walkers
}

// updateBenchWorld is populateBenchWorld against a fresh single-tree monitor.
func updateBenchWorld(b *testing.B, n int) (map[uint64]srb.Point, *srb.Monitor, []*mobility.Waypoint) {
	b.Helper()
	positions := map[uint64]srb.Point{}
	mon := srb.NewMonitor(srb.Options{GridM: 20}, srb.ProberFunc(func(id uint64) srb.Point {
		return positions[id]
	}), nil)
	walkers := populateBenchWorld(b, n, positions, mon)
	return positions, mon, walkers
}

const (
	updateBatchObjects = 2000 // population behind the pipeline acceptance numbers
	updateBatchSize    = 250  // location updates per simulated tick
)

// updateBenchTick materializes one tick's batch: updateBatchSize objects
// report their position at the tick's time, round-robin over the population.
func updateBenchTick(i int, positions map[uint64]srb.Point, walkers []*mobility.Waypoint) (float64, []parallel.Update) {
	t := float64(i) * 0.001
	batch := make([]parallel.Update, updateBatchSize)
	for j := range batch {
		id := uint64((i*updateBatchSize + j) % len(walkers))
		p := walkers[id].At(t)
		positions[id] = p
		batch[j] = parallel.Update{ID: id, Loc: p}
	}
	return t, batch
}

// BenchmarkUpdateSequential is the baseline for BenchmarkUpdateBatch: the
// identical per-tick update stream applied through Monitor.Update in
// ascending object-ID order. One benchmark iteration is one full tick of
// updateBatchSize updates.
func BenchmarkUpdateSequential(b *testing.B) {
	positions, mon, walkers := updateBenchWorld(b, updateBatchObjects)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, batch := updateBenchTick(i, positions, walkers)
		sort.Slice(batch, func(a, c int) bool { return batch[a].ID < batch[c].ID })
		mon.SetTime(t)
		for _, u := range batch {
			mon.Update(u.ID, u.Loc)
		}
	}
}

// BenchmarkUpdateBatch drives the same stream through the parallel pipeline
// at 4 workers and reports the fast-path fraction achieved (the share of
// safe-region geometry moved off the serial path).
func BenchmarkUpdateBatch(b *testing.B) {
	positions, mon, walkers := updateBenchWorld(b, updateBatchObjects)
	pipe := parallel.New(mon, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, batch := updateBenchTick(i, positions, walkers)
		mon.SetTime(t)
		pipe.Apply(batch)
	}
	b.StopTimer()
	if st := pipe.Stats(); st.Updates > 0 {
		b.ReportMetric(float64(st.Fast)/float64(st.Updates), "fastpath-fraction")
	}
}

// --- Observability overhead ------------------------------------------------------

// BenchmarkUpdateSequentialInstrumented is BenchmarkUpdateSequential with a
// live metrics registry and event ring attached: the delta against the
// uninstrumented run is the full observability cost on the hottest path.
// BenchmarkUpdateSequential itself (hooks compiled in, no sink) measures the
// nil-sink cost, which EXPERIMENTS.md bounds at 5% over the pre-hook seed.
func BenchmarkUpdateSequentialInstrumented(b *testing.B) {
	positions, mon, walkers := updateBenchWorld(b, updateBatchObjects)
	mon.SetObs(obs.NewSink(obs.NewRegistry(), obs.NewFlightRecorder(0, "")))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, batch := updateBenchTick(i, positions, walkers)
		sort.Slice(batch, func(a, c int) bool { return batch[a].ID < batch[c].ID })
		mon.SetTime(t)
		for _, u := range batch {
			mon.Update(u.ID, u.Loc)
		}
	}
}

// BenchmarkUpdateBatchInstrumented is BenchmarkUpdateBatch with the sink
// attached to both the monitor and the pipeline.
func BenchmarkUpdateBatchInstrumented(b *testing.B) {
	positions, mon, walkers := updateBenchWorld(b, updateBatchObjects)
	sink := obs.NewSink(obs.NewRegistry(), obs.NewFlightRecorder(0, ""))
	mon.SetObs(sink)
	pipe := parallel.New(mon, 4)
	pipe.SetObs(sink)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, batch := updateBenchTick(i, positions, walkers)
		mon.SetTime(t)
		pipe.Apply(batch)
	}
	b.StopTimer()
	if st := pipe.Stats(); st.Updates > 0 {
		b.ReportMetric(float64(st.Fast)/float64(st.Updates), "fastpath-fraction")
	}
}
