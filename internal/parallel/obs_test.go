package parallel

import (
	"math/rand"
	"testing"

	"srb/internal/core"
	"srb/internal/geom"
	"srb/internal/obs"
)

// TestPipelineObs drives batches through an instrumented pipeline and checks
// that the registry counters mirror the pipeline Stats, the phase histograms
// saw one observation per batch, and the fast-path fraction gauge lands on
// Fast/Updates.
func TestPipelineObs(t *testing.T) {
	pos := map[uint64]geom.Point{}
	mon := core.New(core.Options{Space: geom.R(0, 0, 100, 100), GridM: 10}, core.ProberFunc(func(id uint64) geom.Point { return pos[id] }), nil)
	sink := obs.NewSink(obs.NewRegistry(), obs.NewFlightRecorder(1024, ""))
	mon.SetObs(sink)
	pipe := New(mon, 2)
	pipe.SetObs(sink)

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		pos[uint64(i)] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		mon.AddObject(uint64(i), pos[uint64(i)])
	}
	if _, _, err := mon.RegisterRange(1, geom.R(20, 20, 70, 70)); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 8; b++ {
		batch := make([]Update, 0, 25)
		for i := 0; i < 25; i++ {
			id := uint64(rng.Intn(50))
			p := pos[id]
			np := geom.Pt(p.X+rng.Float64()*10-5, p.Y+rng.Float64()*10-5)
			pos[id] = np
			batch = append(batch, Update{ID: id, Loc: np})
		}
		pipe.Apply(batch)
	}

	st := pipe.Stats()
	r := sink.Registry()
	for _, tc := range []struct {
		name string
		want int64
	}{
		{"srb_batch_batches_total", st.Batches},
		{"srb_batch_updates_total", st.Updates},
		{"srb_batch_planned_total", st.Planned},
		{"srb_batch_fast_total", st.Fast},
		{"srb_batch_fallback_total", st.Fallback},
	} {
		if got := r.Counter(tc.name, "").Value(); got != tc.want {
			t.Errorf("%s = %d, want %d (Stats mirror)", tc.name, got, tc.want)
		}
	}
	if st.Fast+st.Fallback != st.Updates {
		t.Fatalf("stats do not partition: %+v", st)
	}
	for _, phase := range []string{"plan", "apply"} {
		h := r.Histogram("srb_batch_phase_seconds", "", obs.LatencyBuckets(), "phase", phase)
		if h.Count() != st.Batches {
			t.Errorf("phase %q histogram count = %d, want %d", phase, h.Count(), st.Batches)
		}
	}
	if h := r.Histogram("srb_batch_size", "", obs.SizeBuckets()); h.Count() != st.Batches || h.Sum() != float64(st.Updates) {
		t.Errorf("batch size histogram count/sum = %d/%g, want %d/%d", h.Count(), h.Sum(), st.Batches, st.Updates)
	}
	wantFrac := float64(st.Fast) / float64(st.Updates)
	//lint:allow floatcmp gauge stores exactly the value computed from the same integers
	if got := r.Gauge("srb_batch_fastpath_fraction", "").Value(); got != wantFrac {
		t.Errorf("fastpath fraction = %g, want %g", got, wantFrac)
	}
	// Phase spans landed in the ring.
	var plan, apply bool
	for _, e := range sink.Recorder().Events() {
		if e.Kind == obs.KindBatchPlan {
			plan = true
		}
		if e.Kind == obs.KindBatchApply {
			apply = true
		}
	}
	if !plan || !apply {
		t.Errorf("missing batch phase spans (plan=%v apply=%v)", plan, apply)
	}

	// SetObs(nil) detaches; further batches must not advance the counters.
	pipe.SetObs(nil)
	before := r.Counter("srb_batch_batches_total", "").Value()
	pipe.Apply([]Update{{ID: 1, Loc: pos[1]}})
	if got := r.Counter("srb_batch_batches_total", "").Value(); got != before {
		t.Errorf("detached pipeline still counting: %d -> %d", before, got)
	}
}
