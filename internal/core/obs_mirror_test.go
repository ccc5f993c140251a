package core_test

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"srb/internal/core"
	"srb/internal/geom"
	"srb/internal/obs"
	"srb/internal/parallel"
	"srb/internal/query"
)

// checkScrapeMirrorsStats asserts that a scrape of r reads exactly the
// monitor's Stats, kNN cases included, and its populations.
func checkScrapeMirrorsStats(t *testing.T, state string, m *core.Monitor, r *obs.Registry) {
	t.Helper()
	st := m.Stats()
	got := core.Scrape(t, r)
	for _, tc := range []struct {
		name string
		want int64
	}{
		{"srb_updates_total", st.SourceUpdates},
		{"srb_probes_total", st.Probes},
		{"srb_probes_avoided_total", st.ProbesAvoided},
		{"srb_virtual_probes_total", st.VirtualProbes},
		{"srb_reevaluations_total", st.Reevaluations},
		{"srb_full_reevaluations_total", st.FullReevals},
		{"srb_new_query_evals_total", st.NewQueryEvals},
		{"srb_safe_regions_built_total", st.SafeRegionsBuilt},
		{"srb_result_changes_total", st.ResultChanges},
		{`srb_knn_case_total{case="1"}`, st.KNNCases[0]},
		{`srb_knn_case_total{case="2"}`, st.KNNCases[1]},
		{`srb_knn_case_total{case="3"}`, st.KNNCases[2]},
		{"srb_objects", int64(m.NumObjects())},
		{"srb_queries", int64(m.NumQueries())},
	} {
		v, ok := got[tc.name]
		if !ok || int64(v) != tc.want {
			t.Errorf("%s: scraped %s = %g (present %v), want %d", state, tc.name, v, ok, tc.want)
		}
	}
}

// TestObsCountersMirrorStats checks that /metrics reads the monitor's own
// Stats and populations in three states: after a workload driven with a sink
// attached, right after LoadSnapshot into a freshly instrumented monitor
// (before any op), and after a parallel.Pipeline batch whose updates took
// the fast path. It also checks that the op histograms saw every
// instrumented operation and that the ring saw decision-level events.
func TestObsCountersMirrorStats(t *testing.T) {
	sink := obs.NewSink(obs.NewRegistry(), obs.NewFlightRecorder(0, ""))
	mon, pos := core.ObsWorkload(t, sink)
	r := sink.Registry()
	checkScrapeMirrorsStats(t, "after the workload", mon, r)
	st := mon.Stats()
	if mon.NumObjects() != 59 || mon.NumQueries() != 3 {
		t.Fatalf("workload left %d objects and %d queries, want 59 and 3", mon.NumObjects(), mon.NumQueries())
	}
	// kNN cases fire only on the order-sensitive incremental paths; with 200
	// moves around a k=5 query at least one must have.
	if st.KNNCases == [3]int64{} {
		t.Error("no kNN case counted after 200 moves")
	}
	// Every Update/Add/Remove/Register went through its op histogram.
	opCount := func(op string) int64 {
		return r.Histogram("srb_op_seconds", "", obs.LatencyBuckets(), "op", op).Count()
	}
	if got := opCount("update"); got != st.SourceUpdates {
		t.Errorf("update histogram count = %d, want %d (one per Update)", got, st.SourceUpdates)
	}
	if got := opCount("add"); got != 60 {
		t.Errorf("add histogram count = %d, want 60", got)
	}
	if got := opCount("remove"); got != 1 {
		t.Errorf("remove histogram count = %d, want 1", got)
	}
	if got := opCount("register"); got != 4 {
		t.Errorf("register histogram count = %d, want 4", got)
	}
	kinds := map[string]bool{}
	for _, e := range sink.Recorder().Events() {
		kinds[e.Kind] = true
	}
	for _, want := range []string{obs.KindCoreUpdate, obs.KindCoreReevaluate, obs.KindCoreKNNCase} {
		if !kinds[want] {
			t.Errorf("ring has no %q event; got %v", want, kinds)
		}
	}

	// A recovered monitor serves the snapshot's totals before any op.
	var snap bytes.Buffer
	if err := mon.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	recReg := obs.NewRegistry()
	rec := core.New(core.Options{GridM: 10, Space: geom.R(0, 0, 100, 100)},
		core.ProberFunc(func(id uint64) geom.Point { return pos[id] }), nil)
	rec.SetObs(obs.NewSink(recReg, nil))
	if err := rec.LoadSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if rec.Stats() != st {
		t.Fatalf("LoadSnapshot restored %+v, want %+v", rec.Stats(), st)
	}
	checkScrapeMirrorsStats(t, "after LoadSnapshot", rec, recReg)

	// Fast-path applies advance the counters outside the op wrappers.
	pipe := parallel.New(mon, 2)
	pipe.SetObs(sink)
	batch := make([]parallel.Update, 0, len(pos))
	for _, id := range mon.ObjectIDs() {
		p := pos[id]
		pos[id] = geom.Pt(p.X+0.01, p.Y)
		batch = append(batch, parallel.Update{ID: id, Loc: pos[id]})
	}
	pipe.Apply(batch)
	if pipe.Stats().Fast == 0 {
		t.Fatal("the batch took no fast path")
	}
	checkScrapeMirrorsStats(t, "after a pipeline batch", mon, r)
}

// TestObsScrapeConcurrentWithOps scrapes the registry on other goroutines
// while a sink-attached monitor and pipeline run operations; under -race it
// proves the scrape-time reads are synchronized with publishing.
func TestObsScrapeConcurrentWithOps(t *testing.T) {
	pos := map[uint64]geom.Point{}
	mon := core.New(core.Options{GridM: 10, Space: geom.R(0, 0, 100, 100)},
		core.ProberFunc(func(id uint64) geom.Point { return pos[id] }), nil)
	sink := obs.NewSink(obs.NewRegistry(), obs.NewFlightRecorder(256, ""))
	mon.SetObs(sink)
	pipe := parallel.New(mon, 2)
	pipe.SetObs(sink)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf.Reset()
				if err := sink.Registry().WriteText(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 80; i++ {
		pos[uint64(i)] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		mon.AddObject(uint64(i), pos[uint64(i)])
	}
	for tick := 0; tick < 40; tick++ {
		qid := query.ID(tick%4 + 1)
		mon.Deregister(qid)
		if _, _, err := mon.RegisterKNN(qid, geom.Pt(rng.Float64()*100, rng.Float64()*100), 4, true); err != nil {
			t.Fatal(err)
		}
		batch := make([]parallel.Update, 0, 20)
		for j := 0; j < 20; j++ {
			id := uint64(rng.Intn(80))
			p := pos[id]
			pos[id] = geom.Pt(p.X+rng.Float64()*4-2, p.Y+rng.Float64()*4-2)
			batch = append(batch, parallel.Update{ID: id, Loc: pos[id]})
		}
		pipe.Apply(batch)
	}
	close(stop)
	wg.Wait()
	checkScrapeMirrorsStats(t, "after concurrent scrapes", mon, sink.Registry())
}
