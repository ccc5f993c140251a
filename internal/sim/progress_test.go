package sim

import (
	"strings"
	"testing"

	"srb/internal/obs"
)

// TestProgressSnapshots runs a short SRB simulation with progress enabled and
// an observability sink attached, checking the snapshot stream is monotone
// and consistent with the final result, and that the sink saw the workload.
func TestProgressSnapshots(t *testing.T) {
	cfg := Default()
	cfg.N = 200
	cfg.W = 8
	cfg.Duration = 2
	cfg.ProgressEvery = 0.5
	sink := obs.NewSink(obs.NewRegistry(), obs.NewFlightRecorder(4096, ""))
	cfg.Obs = sink

	var snaps []Progress
	cfg.Progress = func(p Progress) { snaps = append(snaps, p) }
	res := RunSRB(cfg)

	if len(snaps) < 3 {
		t.Fatalf("got %d progress snapshots over %g time units at every %g, want >= 3",
			len(snaps), cfg.Duration, cfg.ProgressEvery)
	}
	for i, p := range snaps {
		if p.Scheme != "SRB" {
			t.Errorf("snapshot %d: scheme %q", i, p.Scheme)
		}
		if p.Accuracy < 0 || p.Accuracy > 1 {
			t.Errorf("snapshot %d: accuracy %g out of range", i, p.Accuracy)
		}
		if i > 0 {
			prev := snaps[i-1]
			if p.T <= prev.T {
				t.Errorf("snapshot %d: time not increasing (%g -> %g)", i, prev.T, p.T)
			}
			if p.Updates < prev.Updates || p.Probes < prev.Probes || p.CommCost < prev.CommCost {
				t.Errorf("snapshot %d: counters decreased: %+v -> %+v", i, prev, p)
			}
		}
	}
	last := snaps[len(snaps)-1]
	if last.Updates > res.Updates || last.Probes > res.Probes {
		t.Errorf("last snapshot exceeds final result: %+v vs %+v", last, res)
	}
	var text strings.Builder
	if err := sink.Registry().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseText(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	if f := fams["srb_updates_total"]; f == nil || f.Samples["srb_updates_total"] == 0 {
		t.Error("sink counter srb_updates_total did not move during the simulation")
	}
	if sink.Recorder().Total() == 0 {
		t.Error("sink ring recorded no events during the simulation")
	}
}

// TestProgressOffByDefault checks that a zero ProgressEvery emits nothing
// even with a callback installed.
func TestProgressOffByDefault(t *testing.T) {
	cfg := Default()
	cfg.N = 50
	cfg.W = 4
	cfg.Duration = 1
	called := false
	cfg.Progress = func(Progress) { called = true }
	RunSRB(cfg)
	if called {
		t.Fatal("Progress fired with ProgressEvery unset")
	}
}
