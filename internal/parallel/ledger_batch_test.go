package parallel

import (
	"math/rand"
	"reflect"
	"testing"

	"srb/internal/core"
	"srb/internal/geom"
	"srb/internal/obs"
	"srb/internal/query"
)

// ledgerSum folds every ledger bucket — per-query entries, Unattributed,
// Retired — into one total, the left-hand side of the sum invariant.
func ledgerSum(m *core.Monitor) core.QueryCost {
	var sum core.QueryCost
	for _, e := range m.QueryCosts() {
		sum.Updates += e.Updates
		sum.Probes += e.Probes
		sum.ProbesAvoided += e.ProbesAvoided
		sum.Shrinks += e.Shrinks
		sum.SafeRegions += e.SafeRegions
		sum.Reevals += e.Reevals
		sum.FullReevals += e.FullReevals
		sum.NewQueryEvals += e.NewQueryEvals
		sum.ResultChanges += e.ResultChanges
		sum.KNNCase1 += e.KNNCase1
		sum.KNNCase2 += e.KNNCase2
		sum.KNNCase3 += e.KNNCase3
	}
	for _, e := range []core.QueryCost{m.UnattributedCost(), m.RetiredCost()} {
		sum.Updates += e.Updates
		sum.Probes += e.Probes
		sum.ProbesAvoided += e.ProbesAvoided
		sum.Shrinks += e.Shrinks
		sum.SafeRegions += e.SafeRegions
		sum.Reevals += e.Reevals
		sum.FullReevals += e.FullReevals
		sum.NewQueryEvals += e.NewQueryEvals
		sum.ResultChanges += e.ResultChanges
		sum.KNNCase1 += e.KNNCase1
		sum.KNNCase2 += e.KNNCase2
		sum.KNNCase3 += e.KNNCase3
	}
	return sum
}

// checkBatchLedgerMirror asserts the sum invariant against the global
// counters, as a scrape of r reads them, for every mirrored family, on a
// monitor driven through the batch pipeline.
func checkBatchLedgerMirror(t *testing.T, m *core.Monitor, r *obs.Registry) {
	t.Helper()
	sum := ledgerSum(m)
	scraped := scrape(t, r)
	for _, tc := range []struct {
		name string
		got  int64
	}{
		{"srb_updates_total", sum.Updates},
		{"srb_probes_total", sum.Probes},
		{"srb_probes_avoided_total", sum.ProbesAvoided},
		{"srb_virtual_probes_total", sum.Shrinks},
		{"srb_reevaluations_total", sum.Reevals},
		{"srb_full_reevaluations_total", sum.FullReevals},
		{"srb_new_query_evals_total", sum.NewQueryEvals},
		{"srb_safe_regions_built_total", sum.SafeRegions},
		{"srb_result_changes_total", sum.ResultChanges},
	} {
		if want := int64(scraped[tc.name]); tc.got != want {
			t.Errorf("batch ledger sum %d != global counter %s %d", tc.got, tc.name, want)
		}
	}
	for i, got := range []int64{sum.KNNCase1, sum.KNNCase2, sum.KNNCase3} {
		name := string(rune('1' + i))
		if want := int64(scraped[`srb_knn_case_total{case="`+name+`"}`]); got != want {
			t.Errorf("batch ledger kNN case %s sum %d != counter %d", name, got, want)
		}
	}
}

// batchLedgerWorld is one instrumented monitor under test: the sequential
// reference applies updates directly, the pipeline one through ApplyEach.
type batchLedgerWorld struct {
	mon  *core.Monitor
	pos  map[uint64]geom.Point
	sink *obs.Sink
}

func newBatchLedgerWorld(opt core.Options) *batchLedgerWorld {
	w := &batchLedgerWorld{pos: map[uint64]geom.Point{}}
	w.mon = core.New(opt, core.ProberFunc(func(id uint64) geom.Point { return w.pos[id] }), nil)
	w.sink = obs.NewSink(obs.NewRegistry(), nil)
	w.mon.SetObs(w.sink)
	return w
}

func registerBatchQuery(t *testing.T, m *core.Monitor, id query.ID, rng *rand.Rand) {
	t.Helper()
	var err error
	switch id % 4 {
	case 0:
		_, _, err = m.RegisterRange(id, geom.R(rng.Float64()*60, rng.Float64()*60, rng.Float64()*40+60, rng.Float64()*40+60))
	case 1:
		_, _, err = m.RegisterKNN(id, geom.Pt(rng.Float64()*100, rng.Float64()*100), 4, id%8 == 1)
	case 2:
		_, _, err = m.RegisterWithinDistance(id, geom.Pt(rng.Float64()*100, rng.Float64()*100), 15+rng.Float64()*10)
	default:
		_, _, err = m.RegisterCount(id, geom.R(rng.Float64()*60, rng.Float64()*60, rng.Float64()*40+60, rng.Float64()*40+60))
	}
	if err != nil {
		t.Fatalf("register query %d: %v", id, err)
	}
}

// TestLedgerBatchPathMirrorsCounters drives a seeded workload with query and
// object churn through the batch pipeline and proves the ledger sum invariant
// on the batch path: per-query totals plus the Unattributed and Retired
// buckets sum exactly to the global obs counters after every tick. A
// sequential reference monitor runs the identical workload (updates applied in
// ascending object-ID order, the pipeline's determinism contract) and must end
// with a bit-identical ledger — fast-path applies book the same Unattributed
// work a sequential primary update would.
func TestLedgerBatchPathMirrorsCounters(t *testing.T) {
	opt := core.Options{Space: geom.R(0, 0, 100, 100), GridM: 12, MaxSpeed: 30}
	seq := newBatchLedgerWorld(opt)
	par := newBatchLedgerWorld(opt)
	pipe := New(par.mon, 4)

	rng := rand.New(rand.NewSource(1234))
	now := 0.0
	tickTime := func() {
		now += 0.05
		seq.mon.SetTime(now)
		par.mon.SetTime(now)
	}

	const nObj = 40
	for i := 0; i < nObj; i++ {
		tickTime()
		p := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		seq.pos[uint64(i)] = p
		par.pos[uint64(i)] = p
		seq.mon.AddObject(uint64(i), p)
		par.mon.AddObject(uint64(i), p)
	}
	nextQ := query.ID(1)
	oldestQ := nextQ
	for i := 0; i < 6; i++ {
		qrng := rand.New(rand.NewSource(int64(nextQ)))
		registerBatchQuery(t, seq.mon, nextQ, qrng)
		qrng = rand.New(rand.NewSource(int64(nextQ)))
		registerBatchQuery(t, par.mon, nextQ, qrng)
		nextQ++
	}

	for tick := 0; tick < 40; tick++ {
		tickTime()
		// Query churn every 4 ticks: retire the oldest, register a fresh one,
		// exercising the Retired aggregate on both paths.
		if tick%4 == 3 {
			seq.mon.Deregister(oldestQ)
			par.mon.Deregister(oldestQ)
			oldestQ++
			qrng := rand.New(rand.NewSource(int64(nextQ)))
			registerBatchQuery(t, seq.mon, nextQ, qrng)
			qrng = rand.New(rand.NewSource(int64(nextQ)))
			registerBatchQuery(t, par.mon, nextQ, qrng)
			nextQ++
		}
		// Build one tick's batch in shuffled arrival order; the sequential
		// reference applies it in ascending object-ID order per the contract.
		ids := rng.Perm(nObj)[:12]
		batch := make([]Update, 0, len(ids))
		for _, i := range ids {
			id := uint64(i)
			p := par.pos[id]
			np := geom.Pt(clampCoord(p.X+rng.Float64()*8-4), clampCoord(p.Y+rng.Float64()*8-4))
			batch = append(batch, Update{ID: id, Loc: np})
		}
		for _, u := range batch {
			seq.pos[u.ID] = u.Loc
			par.pos[u.ID] = u.Loc
		}
		ordered := append([]Update(nil), batch...)
		for i := 1; i < len(ordered); i++ {
			for j := i; j > 0 && ordered[j].ID < ordered[j-1].ID; j-- {
				ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
			}
		}
		for _, u := range ordered {
			seq.mon.Update(u.ID, u.Loc)
		}
		pipe.Apply(batch)
		checkBatchLedgerMirror(t, par.mon, par.sink.Registry())
	}

	st := pipe.Stats()
	if st.Fast == 0 {
		t.Fatalf("batch workload never took the fast path: %+v", st)
	}
	if st.Fallback == 0 {
		t.Fatalf("batch workload never fell back to the serial path: %+v", st)
	}
	if par.mon.UnattributedCost().Updates == 0 {
		t.Error("no unattributed updates; fast path should book there")
	}
	if par.mon.RetiredQueries() == 0 {
		t.Error("query churn produced no retired ledger entries")
	}

	// Determinism contract extends to the ledger: identical workload, identical
	// per-query attribution on both paths.
	if got, want := par.mon.QueryCosts(), seq.mon.QueryCosts(); !reflect.DeepEqual(got, want) {
		t.Errorf("batch ledger entries diverge from sequential:\n batch: %+v\n   seq: %+v", got, want)
	}
	if got, want := par.mon.UnattributedCost(), seq.mon.UnattributedCost(); got != want {
		t.Errorf("batch Unattributed diverges: %+v vs %+v", got, want)
	}
	if got, want := par.mon.RetiredCost(), seq.mon.RetiredCost(); got != want {
		t.Errorf("batch Retired diverges: %+v vs %+v", got, want)
	}
	checkBatchLedgerMirror(t, seq.mon, seq.sink.Registry())
}

func clampCoord(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 100 {
		return 100
	}
	return v
}

// TestApplyEachCtxBeforeHook pins the ApplyEachCtx contract the remote server
// relies on for causal tracing: before fires exactly once per update, in
// application order (ascending object ID), each invocation strictly preceding
// that update's emit.
func TestApplyEachCtxBeforeHook(t *testing.T) {
	pos := map[uint64]geom.Point{}
	mon := core.New(core.Options{Space: geom.R(0, 0, 100, 100), GridM: 8}, core.ProberFunc(func(id uint64) geom.Point { return pos[id] }), nil)
	for i := 0; i < 8; i++ {
		pos[uint64(i)] = geom.Pt(float64(i)*10, float64(i)*10)
		mon.AddObject(uint64(i), pos[uint64(i)])
	}
	if _, _, err := mon.RegisterRange(1, geom.R(5, 5, 55, 55)); err != nil {
		t.Fatal(err)
	}
	pipe := New(mon, 2)

	batch := []Update{{ID: 5, Loc: geom.Pt(51, 51)}, {ID: 2, Loc: geom.Pt(22, 21)}, {ID: 7, Loc: geom.Pt(71, 70)}, {ID: 0, Loc: geom.Pt(1, 2)}}
	for _, u := range batch {
		pos[u.ID] = u.Loc
	}
	var beforeOrder, emitOrder []int
	pipe.ApplyEachCtx(batch,
		func(i int) { beforeOrder = append(beforeOrder, i) },
		func(i int, _ []core.SafeRegionUpdate) { emitOrder = append(emitOrder, i) })

	want := []int{3, 1, 0, 2} // batch indices in ascending object-ID order
	if !reflect.DeepEqual(beforeOrder, want) {
		t.Errorf("before order = %v, want %v", beforeOrder, want)
	}
	if !reflect.DeepEqual(emitOrder, want) {
		t.Errorf("emit order = %v, want %v", emitOrder, want)
	}
}
