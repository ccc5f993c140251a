package core

import (
	"math/rand"
	"strings"
	"testing"

	"srb/internal/geom"
	"srb/internal/obs"
	"srb/internal/query"
)

// driveObsWorkload runs a small deterministic workload exercising every
// instrumented path: adds, range/kNN/circle/count registration, updates that
// trigger incremental reevaluation, and a removal.
func driveObsWorkload(t *testing.T, w *world) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 60; i++ {
		w.add(uint64(i), geom.Pt(rng.Float64()*100, rng.Float64()*100))
	}
	if _, _, err := w.mon.RegisterRange(1, geom.R(10, 10, 60, 60)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.mon.RegisterKNN(2, geom.Pt(50, 50), 5, true); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.mon.RegisterWithinDistance(3, geom.Pt(30, 70), 15); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.mon.RegisterCount(4, geom.R(0, 0, 40, 40)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		id := uint64(rng.Intn(60))
		p := w.pos[id]
		w.move(id, geom.Pt(p.X+rng.Float64()*20-10, p.Y+rng.Float64()*20-10))
	}
	w.mon.RemoveObject(5)
	w.mon.Deregister(4)
}

// TestObsCountersMirrorStats drives a workload with a sink attached and checks
// that the registry counters land exactly on the monitor's own Stats, that
// the gauges track the populations, and that the op histograms saw every
// instrumented operation.
func TestObsCountersMirrorStats(t *testing.T) {
	sink := obs.NewSink(obs.NewRegistry(), obs.NewFlightRecorder(0, ""))
	w := newWorld(t, Options{GridM: 10, Space: geom.R(0, 0, 100, 100)})
	w.mon.SetObs(sink)
	driveObsWorkload(t, w)

	st := w.mon.Stats()
	r := sink.Registry()
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
	} {
		if got := r.Counter(tc.name, "").Value(); got != tc.want {
			t.Errorf("%s = %d, want %d (Stats mirror)", tc.name, got, tc.want)
		}
	}
	if got := r.Gauge("srb_objects", "").Value(); got != 59 {
		t.Errorf("srb_objects = %g, want 59", got)
	}
	if got := r.Gauge("srb_queries", "").Value(); got != 3 {
		t.Errorf("srb_queries = %g, want 3", got)
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
	// kNN case counters only fire on the order-sensitive incremental paths;
	// with 200 moves around a k=5 query at least one case must have fired.
	var knn int64
	for _, c := range []string{"1", "2", "3"} {
		knn += r.Counter("srb_knn_case_total", "", "case", c).Value()
	}
	if knn == 0 {
		t.Error("no srb_knn_case_total increments after 200 moves")
	}
	// The ring saw decision-level events from the workload.
	fr := sink.Recorder()
	if fr.Total() == 0 {
		t.Fatal("ring recorded no events")
	}
	kinds := map[string]bool{}
	for _, e := range fr.Events() {
		kinds[e.Kind] = true
	}
	for _, want := range []string{obs.KindCoreUpdate, obs.KindCoreReevaluate} {
		if !kinds[want] {
			t.Errorf("ring has no %q event; got %v", want, kinds)
		}
	}
	// The whole state round-trips through the text exposition.
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ParseText(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("core-driven exposition does not parse: %v", err)
	}
}

// TestObsNilSinkIsNeutral checks that the uninstrumented monitor behaves
// bit-identically to the instrumented one (same Stats, same results) and that
// SetObs(nil) detaches.
func TestObsNilSinkIsNeutral(t *testing.T) {
	plain := newWorld(t, Options{GridM: 10, Space: geom.R(0, 0, 100, 100)})
	driveObsWorkload(t, plain)

	inst := newWorld(t, Options{GridM: 10, Space: geom.R(0, 0, 100, 100)})
	inst.mon.SetObs(obs.NewSink(obs.NewRegistry(), obs.NewFlightRecorder(256, "")))
	driveObsWorkload(t, inst)

	if plain.mon.Stats() != inst.mon.Stats() {
		t.Fatalf("instrumentation changed behavior:\nplain = %+v\ninst  = %+v",
			plain.mon.Stats(), inst.mon.Stats())
	}
	for _, qid := range []query.ID{1, 2, 3} {
		a, _ := plain.mon.Results(qid)
		b, _ := inst.mon.Results(qid)
		if len(a) != len(b) {
			t.Fatalf("query %d: result size diverged (%d vs %d)", qid, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d: results diverged at %d", qid, i)
			}
		}
	}

	inst.mon.SetObs(nil)
	if inst.mon.mobs != nil {
		t.Fatal("SetObs(nil) must detach")
	}
}
