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

// ObsWorkload runs driveObsWorkload on a monitor with sink attached and
// returns the monitor with its prober's position table, so the external
// tests (obs_mirror_test.go, which may import parallel) can keep driving it.
func ObsWorkload(t *testing.T, sink *obs.Sink) (*Monitor, map[uint64]geom.Point) {
	t.Helper()
	w := newWorld(t, Options{GridM: 10, Space: geom.R(0, 0, 100, 100)})
	w.mon.SetObs(sink)
	driveObsWorkload(t, w)
	return w.mon, w.pos
}

// Scrape renders r the way /metrics does and parses it back: every sample by
// its full name, labels included.
func Scrape(t *testing.T, r *obs.Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	out := map[string]float64{}
	for _, f := range fams {
		for name, v := range f.Samples {
			out[name] = v
		}
	}
	return out
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

// TestPublishAllocatesNothing pins that refreshing the copy a scrape reads,
// which runs after every instrumented op and fast-path apply, allocates
// nothing.
func TestPublishAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	mon, _ := ObsWorkload(t, obs.NewSink(obs.NewRegistry(), nil))
	if n := testing.AllocsPerRun(100, func() { mon.mobs.publish(mon) }); n != 0 {
		t.Fatalf("publish allocates %g objects per call, want 0", n)
	}
}
