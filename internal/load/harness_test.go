package load

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"srb/internal/core"
	"srb/internal/geom"
	"srb/internal/obs"
	"srb/internal/remote"
)

// inprocControl implements ServerControl over an in-process remote.Server:
// Kill tears the listener and event loop down without snapshotting (the
// journal tail survives, exactly like a SIGKILL), Restart builds a fresh
// server on the same address and recovers from the persist directory. Each
// life is set up like load-smoke's srb-server: two batch workers, a 30 s
// lease, persistence, an observability sink and a flight recorder. The
// current life is an atomic pointer because the admin handler reads it from
// HTTP goroutines.
//
// Kill deliberately does not wait for Serve to return: connection goroutines
// whose peer is idle only exit once the peer closes (exactly as a killed
// process's kernel would reset them), and the fleet's own shutdown closes
// every client at the end of the run.
type inprocControl struct {
	t     *testing.T
	addr  string
	dir   string
	dumps string
	srv   atomic.Pointer[remote.Server]
}

// start brings up one server life, recovering from dir first when recover is
// set.
func (c *inprocControl) start(recover bool) error {
	s, err := remote.NewServer(c.addr, core.Options{
		Space: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
		GridM: 20,
	})
	if err != nil {
		return err
	}
	s.SetLogf(nil)
	fr := obs.NewFlightRecorder(8192, c.dumps)
	c.t.Cleanup(fr.Close)
	s.SetObs(obs.NewSink(obs.NewRegistry(), fr))
	s.SetWorkers(2)
	s.SetLease(30 * time.Second)
	if recover {
		if _, err := s.Recover(c.dir); err != nil {
			_ = s.Close()
			return err
		}
	}
	if err := s.SetPersist(c.dir, 0); err != nil {
		_ = s.Close()
		return err
	}
	go func() { _ = s.Serve() }()
	c.addr = s.Addr()
	c.srv.Store(s)
	return nil
}

func (c *inprocControl) Kill() error {
	return c.srv.Load().Close()
}

func (c *inprocControl) Restart() error {
	return c.start(true)
}

// ServeHTTP forwards to the current life's admin surface.
func (c *inprocControl) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.srv.Load().AdminHandler().ServeHTTP(w, r)
}

// TestLoadHarnessShortRun is the tier-1 end-to-end gate over the wire stack:
// a real server and the open-loop generator run in-process, the server is
// killed and recovered mid-run, and the resulting capacity report must
// validate — schema, non-zero latency quantiles, monotone ramp, the
// SIGKILL → recover → SLO-restored sequencing, and the admin-surface
// evidence of both server lives.
func TestLoadHarnessShortRun(t *testing.T) {
	ctl := &inprocControl{t: t, addr: "127.0.0.1:0", dir: t.TempDir(), dumps: t.TempDir()}
	if err := ctl.start(false); err != nil {
		t.Fatalf("server: %v", err)
	}
	t.Cleanup(func() { _ = ctl.srv.Load().Close() })
	admin := httptest.NewServer(ctl)
	t.Cleanup(admin.Close)

	reg := obs.NewRegistry()
	cfg := Config{
		Addr:             ctl.addr,
		Seed:             42,
		Sessions:         4,
		StageMultipliers: []int{1, 2},
		StageDuration:    700 * time.Millisecond,
		TickEvery:        20 * time.Millisecond,
		ReportEvery:      60 * time.Millisecond,
		ProbeEvery:       50 * time.Millisecond,
		MeanSpeed:        0.3,
		Timescale:        5,
		RangeQueries:     2,
		CircleQueries:    1,
		KNNQueries:       1,
		SLOP99:           2 * time.Second, // generous: CI boxes are slow, the schema is the test
		Recovery:         &RecoveryConfig{Control: ctl, Timeout: 20 * time.Second},
		Registry:         reg,
		AdminURL:         admin.URL,
	}
	report, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := report.Validate(); err != nil {
		t.Fatalf("report does not validate: %v", err)
	}

	// Ramp shape: the configured multiplier ladder, strictly monotone.
	if len(report.Stages) != 2 {
		t.Fatalf("got %d stages, want 2", len(report.Stages))
	}
	if report.Stages[0].Sessions != 4 || report.Stages[1].Sessions != 8 {
		t.Errorf("stage sessions = %d,%d; want 4,8", report.Stages[0].Sessions, report.Stages[1].Sessions)
	}

	// The workload must have flowed: offered updates, acks with non-zero
	// quantiles, probe round trips.
	st := report.Stages[0]
	if st.OfferedUpdates == 0 || st.AckedUpdates == 0 {
		t.Errorf("stage 1 moved nothing: offered=%d acked=%d", st.OfferedUpdates, st.AckedUpdates)
	}
	for _, q := range []float64{st.UpdateAck.P50, st.UpdateAck.P99, st.UpdateAck.P999} {
		if q <= 0 {
			t.Errorf("stage 1 update-ack quantiles not all positive: %+v", st.UpdateAck)
			break
		}
	}

	// The worst-ack trace must resolve to a complete causal chain — causing
	// wire event plus the grant it produced — in the flight-recorder ring.
	if report.Flight.Trace == 0 {
		t.Errorf("flight check did not run: %+v", report.Flight)
	}
	if !report.Flight.Complete {
		t.Errorf("worst-ack trace %#x chain incomplete: %d events, kinds %v",
			report.Flight.Trace, report.Flight.Events, report.Flight.Kinds)
	}

	// Both server lives' admin surfaces were scraped and judged.
	if report.Server == nil || report.Recovered == nil {
		t.Fatalf("admin evidence not gathered from both lives: server %+v, recovered %+v", report.Server, report.Recovered)
	}
	if !report.Server.StatsBatch || !report.Recovered.StatsBatch {
		t.Errorf("two-worker server lives show no batch pipeline: first %v, recovered %v",
			report.Server.StatsBatch, report.Recovered.StatsBatch)
	}

	// SIGKILL → recover → SLO-restored sequencing, all finite.
	rec := report.Recovery
	if !rec.Performed {
		t.Fatal("recovery drill did not run")
	}
	if rec.RTOSeconds <= 0 || rec.SLORestoreSeconds <= 0 {
		t.Errorf("recovery not measured: RTO=%g SLORestore=%g", rec.RTOSeconds, rec.SLORestoreSeconds)
	}
	if !(rec.KillAtSeconds < rec.RecoveredAtSeconds) {
		t.Errorf("sequencing: kill at %g not before recovered at %g", rec.KillAtSeconds, rec.RecoveredAtSeconds)
	}
	if !(rec.KillAtSeconds < rec.SLORestoredAtSeconds) {
		t.Errorf("sequencing: kill at %g not before SLO restored at %g", rec.KillAtSeconds, rec.SLORestoredAtSeconds)
	}

	// The client-side metric families must mirror the run.
	if v := metricValue(t, reg, "srb_load_updates_sent_total"); v <= 0 {
		t.Errorf("srb_load_updates_sent_total = %g, want > 0", v)
	}
	if v := metricValue(t, reg, "srb_load_acks_total"); v <= 0 {
		t.Errorf("srb_load_acks_total = %g, want > 0", v)
	}

	// Round-trip the report through its JSON file form.
	path := t.TempDir() + "/LOAD_test.json"
	if err := report.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
}

// metricValue reads one unlabeled counter/gauge sample from a registry via
// the text exposition, so the test exercises the same path a scraper does.
func metricValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatalf("exposition: %v", err)
	}
	fams, err := obs.ParseText(&buf)
	if err != nil {
		t.Fatalf("parse exposition: %v", err)
	}
	f := fams[name]
	if f == nil {
		t.Fatalf("family %s missing", name)
	}
	return f.Samples[name]
}
