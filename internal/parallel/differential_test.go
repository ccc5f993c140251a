package parallel_test

// Differential harness for the batch pipeline's determinism contract: a
// sequential Monitor and a ParallelMonitor are driven with the identical
// seeded random-waypoint workload — honest exit-driven reporting, range +
// kNN + within-distance + COUNT queries with register/deregister churn,
// object churn — and every tick asserts bit-identical safe-region streams,
// result-update streams, Stats counters, per-query results, and per-object
// safe regions. The parallel side receives each tick's batch in shuffled
// order, so the run also proves the ascending-object-ID normalization.
// Mid-run both sides snapshot (byte-identical) and the parallel side is
// rebuilt from its snapshot, whose reload gives its R*-tree a new shape. The
// tree-shape scenario also gives the parallel side a node capacity of 4
// against the sequential side's 16, so the two trees never share a shape:
// the run proves results independent of tree shape (DESIGN.md §14). The
// whole suite repeats at GOMAXPROCS 1, 4, and 8.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"srb"
	"srb/internal/mobility"
)

// diffConfig sizes one differential scenario.
type diffConfig struct {
	seed    int64
	opt     srb.Options
	workers int
	nObj    int
	nQuery  int
	ticks   int
	dt      float64
	// parTreeCapacity is the parallel side's R*-tree node capacity; 0 keeps
	// the default 16 that the sequential side always uses.
	parTreeCapacity int
}

func baseOptions() srb.Options {
	return srb.Options{
		Space: srb.R(0, 0, 1, 1),
		GridM: 10,
	}
}

func enhancedOptions() srb.Options {
	o := baseOptions()
	o.MaxSpeed = 0.2
	o.Steadiness = 0.5
	o.CellNeighborhood = 1
	return o
}

func TestDifferentialParallelVsSequential(t *testing.T) {
	scenarios := []struct {
		name string
		cfg  diffConfig
	}{
		{"base", diffConfig{seed: 1, opt: baseOptions(), workers: 4, nObj: 150, nQuery: 12, ticks: 30, dt: 0.4}},
		{"enhanced", diffConfig{seed: 2, opt: enhancedOptions(), workers: 4, nObj: 120, nQuery: 10, ticks: 25, dt: 0.4}},
		{"single-worker", diffConfig{seed: 3, opt: baseOptions(), workers: 1, nObj: 100, nQuery: 8, ticks: 20, dt: 0.4}},
		{"tree-shape", diffConfig{seed: 4, opt: enhancedOptions(), workers: 4, nObj: 150, nQuery: 12, ticks: 30, dt: 0.4, parTreeCapacity: 4}},
	}
	for _, gmp := range []int{1, 4, 8} {
		gmp := gmp
		t.Run(fmt.Sprintf("gomaxprocs=%d", gmp), func(t *testing.T) {
			// GOMAXPROCS is process-global: subtests must stay serial.
			prev := runtime.GOMAXPROCS(gmp)
			defer runtime.GOMAXPROCS(prev)
			for _, sc := range scenarios {
				t.Run(sc.name, func(t *testing.T) { runDifferential(t, sc.cfg) })
			}
		})
	}
}

// runDifferential drives both monitor variants through the workload and
// fails on the first divergence.
func runDifferential(t *testing.T, cfg diffConfig) {
	t.Helper()
	rng := rand.New(rand.NewSource(cfg.seed))

	// Shared ground truth: both sides' probes answer with the object's exact
	// current position, so probe outcomes cannot diverge.
	pos := make(map[uint64]srb.Point)
	prober := srb.ProberFunc(func(id uint64) srb.Point { return pos[id] })

	var seqPushed, parPushed []srb.ResultUpdate
	seq := srb.NewMonitor(cfg.opt, prober, func(u srb.ResultUpdate) { seqPushed = append(seqPushed, u) })
	parOpt := cfg.opt
	parOpt.TreeCapacity = cfg.parTreeCapacity
	newPar := func() *srb.ParallelMonitor {
		return srb.NewParallelMonitor(parOpt, cfg.workers, prober, func(u srb.ResultUpdate) { parPushed = append(parPushed, u) })
	}
	par := newPar()

	checkPushed := func(ctx string) {
		t.Helper()
		if !reflect.DeepEqual(seqPushed, parPushed) {
			t.Fatalf("%s: result-update streams diverged\nseq: %v\npar: %v", ctx, seqPushed, parPushed)
		}
		seqPushed, parPushed = nil, nil
	}
	checkState := func(ctx string, qids []srb.QueryID) {
		t.Helper()
		if s, p := seq.Stats(), par.Stats(); s != p {
			t.Fatalf("%s: stats diverged\nseq: %+v\npar: %+v", ctx, s, p)
		}
		for _, qid := range qids {
			sr, sok := seq.Results(qid)
			pr, pok := par.Results(qid)
			if sok != pok || !reflect.DeepEqual(sr, pr) {
				t.Fatalf("%s: query %d results diverged\nseq: %v (%v)\npar: %v (%v)", ctx, qid, sr, sok, pr, pok)
			}
		}
		for id := range pos {
			sr, sok := seq.SafeRegion(id)
			pr, pok := par.SafeRegion(id)
			//lint:allow floatcmp differential oracle: the contract is bit-identical state
			if sok != pok || sr != pr {
				t.Fatalf("%s: object %d safe region diverged\nseq: %v (%v)\npar: %v (%v)", ctx, id, sr, sok, pr, pok)
			}
		}
		if seq.NumObjects() != par.NumObjects() || seq.NumQueries() != par.NumQueries() {
			t.Fatalf("%s: population diverged: %d/%d objects, %d/%d queries",
				ctx, seq.NumObjects(), par.NumObjects(), seq.NumQueries(), par.NumQueries())
		}
	}

	// Registration phase at t=0: objects first, then the query workload.
	walkers := make(map[uint64]*mobility.Waypoint, cfg.nObj)
	seq.SetTime(0)
	par.SetTime(0)
	for i := 0; i < cfg.nObj; i++ {
		id := uint64(i)
		start := srb.Pt(rng.Float64(), rng.Float64())
		walkers[id] = mobility.NewWaypoint(cfg.seed, id, cfg.opt.Space, 0.08, 2, start)
		pos[id] = start
		su := seq.AddObject(id, start)
		pu := par.AddObject(id, start)
		if !reflect.DeepEqual(su, pu) {
			t.Fatalf("AddObject(%d): regions diverged\nseq: %v\npar: %v", id, su, pu)
		}
	}

	var qids []srb.QueryID
	nextQID := srb.QueryID(1)
	registerOne := func(ctx string) {
		t.Helper()
		qid := nextQID
		nextQID++
		var sres, pres []uint64
		var sups, pups []srb.SafeRegionUpdate
		var serr, perr error
		switch rng.Intn(4) {
		case 0:
			x, y := rng.Float64(), rng.Float64()
			w, h := 0.05+rng.Float64()*0.15, 0.05+rng.Float64()*0.15
			r := srb.R(x, y, x+w, y+h)
			sres, sups, serr = seq.RegisterRange(qid, r)
			pres, pups, perr = par.RegisterRange(qid, r)
		case 1:
			c := srb.Pt(rng.Float64(), rng.Float64())
			k := 1 + rng.Intn(5)
			ordered := rng.Intn(2) == 0
			sres, sups, serr = seq.RegisterKNN(qid, c, k, ordered)
			pres, pups, perr = par.RegisterKNN(qid, c, k, ordered)
		case 2:
			c := srb.Pt(rng.Float64(), rng.Float64())
			rad := 0.05 + rng.Float64()*0.1
			sres, sups, serr = seq.RegisterWithinDistance(qid, c, rad)
			pres, pups, perr = par.RegisterWithinDistance(qid, c, rad)
		default:
			x, y := rng.Float64(), rng.Float64()
			w, h := 0.05+rng.Float64()*0.2, 0.05+rng.Float64()*0.2
			r := srb.R(x, y, x+w, y+h)
			var sn, pn int
			sn, sups, serr = seq.RegisterCount(qid, r)
			pn, pups, perr = par.RegisterCount(qid, r)
			if sn != pn {
				t.Fatalf("%s: register count %d diverged: %d vs %d", ctx, qid, sn, pn)
			}
		}
		if (serr == nil) != (perr == nil) {
			t.Fatalf("%s: register %d error diverged: %v vs %v", ctx, qid, serr, perr)
		}
		if serr == nil {
			qids = append(qids, qid)
		}
		if !reflect.DeepEqual(sres, pres) || !reflect.DeepEqual(sups, pups) {
			t.Fatalf("%s: register %d outcome diverged\nseq: %v %v\npar: %v %v", ctx, qid, sres, sups, pres, pups)
		}
	}
	for i := 0; i < cfg.nQuery; i++ {
		registerOne("initial registration")
	}
	checkPushed("after registration")
	checkState("after registration", qids)

	var removed []uint64     // object-churn victims awaiting re-add
	var early srb.BatchStats // the first parallel monitor's counters, before the reload
	for tick := 1; tick <= cfg.ticks; tick++ {
		now := float64(tick) * cfg.dt
		ctx := fmt.Sprintf("tick %d", tick)
		seq.SetTime(now)
		par.SetTime(now)

		// Move everyone, then report honestly: exactly the objects that left
		// their safe region send an update.
		var batch []srb.ObjectUpdate
		for id, w := range walkers {
			p := w.At(now)
			pos[id] = p
			if r, ok := seq.SafeRegion(id); ok && !r.Contains(p) {
				batch = append(batch, srb.ObjectUpdate{ID: id, Loc: p})
			}
		}

		// Sequential side: ascending object-ID order — the order the contract
		// normalizes to.
		ordered := append([]srb.ObjectUpdate(nil), batch...)
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })
		var sups []srb.SafeRegionUpdate
		for _, u := range ordered {
			sups = append(sups, seq.Update(u.ID, u.Loc)...)
		}
		// Parallel side: the same batch in shuffled arrival order.
		rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		pups := par.UpdateBatch(batch)
		if !reflect.DeepEqual(sups, pups) {
			t.Fatalf("%s: safe-region streams diverged (%d updates)\nseq: %v\npar: %v", ctx, len(ordered), sups, pups)
		}
		checkPushed(ctx)
		checkState(ctx, qids)

		// Query churn: replace the oldest query every few ticks.
		if tick%4 == 0 && len(qids) > 0 {
			victim := qids[0]
			qids = qids[1:]
			sok := seq.Deregister(victim)
			pok := par.Deregister(victim)
			if sok != pok {
				t.Fatalf("%s: deregister %d diverged: %v vs %v", ctx, victim, sok, pok)
			}
			registerOne(ctx)
			checkPushed(ctx + " (query churn)")
			checkState(ctx+" (query churn)", qids)
		}
		// Object churn: remove one object, re-add it two ticks later at its
		// then-current position.
		if tick%7 == 0 {
			id := uint64(rng.Intn(cfg.nObj))
			if _, ok := pos[id]; ok {
				su := seq.RemoveObject(id)
				pu := par.RemoveObject(id)
				if !reflect.DeepEqual(su, pu) {
					t.Fatalf("%s: RemoveObject(%d) diverged\nseq: %v\npar: %v", ctx, id, su, pu)
				}
				delete(pos, id)
				removed = append(removed, id)
			}
		}
		if tick%7 == 2 && len(removed) > 0 {
			id := removed[0]
			removed = removed[1:]
			p := walkers[id].At(now)
			pos[id] = p
			su := seq.AddObject(id, p)
			pu := par.AddObject(id, p)
			if !reflect.DeepEqual(su, pu) {
				t.Fatalf("%s: re-AddObject(%d) diverged\nseq: %v\npar: %v", ctx, id, su, pu)
			}
			checkPushed(ctx + " (object churn)")
			checkState(ctx+" (object churn)", qids)
		}

		// Crash-recovery cycle at half-time: both sides snapshot
		// (byte-identical, since snapshots hold no tree structure), and the
		// parallel side is rebuilt from its snapshot — a differently shaped
		// tree — before the workload continues.
		if tick == cfg.ticks/2 {
			var sb, pb bytes.Buffer
			if err := seq.SaveSnapshot(&sb); err != nil {
				t.Fatalf("%s: seq snapshot: %v", ctx, err)
			}
			if err := par.SaveSnapshot(&pb); err != nil {
				t.Fatalf("%s: par snapshot: %v", ctx, err)
			}
			if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
				t.Fatalf("%s: snapshots differ between sequential and parallel monitor", ctx)
			}
			early = par.BatchStats()
			par = newPar()
			if err := par.LoadSnapshot(&pb); err != nil {
				t.Fatalf("%s: par LoadSnapshot: %v", ctx, err)
			}
			checkState(ctx+" (after reload)", qids)
		}
	}

	// The harness only proves something about the parallel path if the fast
	// path actually ran; a workload where every update conflicts would pass
	// vacuously.
	bs := par.BatchStats()
	updates, fast := early.Updates+bs.Updates, early.Fast+bs.Fast
	if updates == 0 {
		t.Fatalf("workload produced no batched updates")
	}
	if fast == 0 {
		t.Fatalf("no update took the fast path (stats %+v then %+v): scenario too dense to exercise the pipeline", early, bs)
	}
	t.Logf("batch stats: %+v then %+v (fast path %.0f%%)", early, bs, 100*float64(fast)/float64(updates))
}
