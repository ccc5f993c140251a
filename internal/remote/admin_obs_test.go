package remote

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"srb/internal/core"
	"srb/internal/geom"
	"srb/internal/obs"
	"srb/internal/parallel"
)

// startObsServer is startServer with an observability sink attached and the
// batch pipeline enabled before Serve.
func startObsServer(t *testing.T) (*Server, *obs.Sink) {
	t.Helper()
	s, err := NewServer("127.0.0.1:0", core.Options{GridM: 10})
	if err != nil {
		t.Fatal(err)
	}
	s.SetLogf(nil)
	sink := obs.NewSink(obs.NewRegistry(), obs.NewFlightRecorder(0, ""))
	s.SetObs(sink)
	s.SetWorkers(2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = s.Serve()
	}()
	t.Cleanup(func() {
		_ = s.Close()
		wg.Wait()
	})
	return s, sink
}

func scrape(t *testing.T, url string) map[string]*obs.ParsedFamily {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	fams, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("/metrics output does not parse: %v", err)
	}
	return fams
}

// TestAdminMetricsAndTrace drives a small workload against an instrumented
// server and checks the whole new admin surface: /metrics serves parseable
// Prometheus text whose families are complete and whose counters move with
// the workload, /trace serves loadable Chrome trace JSON, /stats carries the
// batch pipeline counters, and /debug/pprof answers.
func TestAdminMetricsAndTrace(t *testing.T) {
	s, _ := startObsServer(t)
	srv := httptest.NewServer(s.AdminHandler())
	defer srv.Close()

	for i := 1; i <= 6; i++ {
		c, err := DialClient(s.Addr(), uint64(i), geom.Pt(float64(i)*0.1, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	waitFor(t, "objects", func() bool {
		n := 0
		_ = s.do(func() { n = s.mon.NumObjects() })
		return n == 6
	})
	app, err := DialApp(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if _, err := app.RegisterKNN(1, geom.Pt(0.5, 0.5), 3, true); err != nil {
		t.Fatal(err)
	}
	if _, err := app.RegisterRange(2, geom.R(0.2, 0.2, 0.8, 0.8)); err != nil {
		t.Fatal(err)
	}

	before := scrape(t, srv.URL)
	for _, fam := range []string{
		"srb_updates_total", "srb_probes_total", "srb_reevaluations_total",
		"srb_new_query_evals_total", "srb_op_seconds",
		"srb_objects", "srb_queries",
		"srb_server_clients", "srb_server_queue_depth", "srb_server_request_seconds",
	} {
		f := before[fam]
		if f == nil {
			t.Fatalf("family %s missing from scrape; have %v", fam, obs.FamilyNames(before))
		}
		if f.Help == "" || f.Type == "" {
			t.Errorf("family %s lacks HELP/TYPE", fam)
		}
	}
	if got := before["srb_objects"].Samples["srb_objects"]; got != 6 {
		t.Errorf("srb_objects = %g, want 6", got)
	}
	if got := before["srb_server_clients"].Samples["srb_server_clients"]; got != 6 {
		t.Errorf("srb_server_clients = %g, want 6", got)
	}

	// Drive updates: move every client far out of its region several times so
	// each tick reports, then wait until the server processed them.
	clients := make([]*MobileClient, 0, 6)
	for i := 1; i <= 6; i++ {
		c, err := DialClient(s.Addr(), uint64(100+i), geom.Pt(0.1, 0.1))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
	}
	for round := 0; round < 5; round++ {
		for i, c := range clients {
			c.Tick(geom.Pt(float64((round*7+i*3)%10)/10+0.05, float64((round*3+i)%10)/10+0.05))
		}
	}
	waitFor(t, "updates counted", func() bool {
		var n int64
		_ = s.do(func() { n = s.mon.Stats().SourceUpdates })
		return n >= 10
	})

	after := scrape(t, srv.URL)
	if b, a := before["srb_updates_total"].Samples["srb_updates_total"], after["srb_updates_total"].Samples["srb_updates_total"]; a <= b {
		t.Errorf("srb_updates_total did not move: %g -> %g", b, a)
	}
	if cnt := after["srb_op_seconds"].Samples[`srb_op_seconds_count{op="update"}`]; cnt == 0 {
		t.Error(`srb_op_seconds{op="update"} histogram saw no observations`)
	}
	if cnt := after["srb_server_request_seconds"].Samples[`srb_server_request_seconds_count{kind="update"}`]; cnt == 0 {
		t.Error(`srb_server_request_seconds{kind="update"} saw no observations`)
	}

	// /stats carries the pipeline counters when workers are enabled.
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Stats core.Stats      `json:"stats"`
		Batch *parallel.Stats `json:"batch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if payload.Batch == nil {
		t.Fatal("/stats batch section missing with workers enabled")
	}
	if payload.Batch.Fast+payload.Batch.Fallback != payload.Batch.Updates {
		t.Errorf("/stats batch counters do not partition: %+v", payload.Batch)
	}

	// /trace serves loadable Chrome trace JSON with core decision events
	// beside the wire-level chain, all from the one ring.
	resp, err = http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatalf("/trace is not valid JSON: %v", err)
	}
	resp.Body.Close()
	if len(trace.TraceEvents) == 0 {
		t.Fatal("/trace has no events after a workload")
	}
	names := map[string]bool{}
	for _, e := range trace.TraceEvents {
		names[e.Cat+"/"+e.Name] = true
		if e.Ph != "X" && e.Ph != "i" {
			t.Errorf("unexpected trace phase %q", e.Ph)
		}
	}
	for _, want := range []string{"core/update", "server/batch", "flight/update", "flight/grant"} {
		if !names[want] {
			t.Errorf("trace lacks %s events; saw %v", want, names)
		}
	}

	// The pprof surface answers.
	resp, err = http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("/debug/pprof/ status %d, body %.60q", resp.StatusCode, body)
	}
}

// TestAdminMetricsDisabled checks the surface without a sink: /metrics and
// /trace answer 404 instead of serving empty documents.
func TestAdminMetricsDisabled(t *testing.T) {
	s := startServer(t)
	srv := httptest.NewServer(s.AdminHandler())
	defer srv.Close()
	for _, path := range []string{"/metrics", "/trace"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s without sink: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestRecoveredMetricsMatchStats restarts an instrumented server from a
// snapshot with an empty journal tail and checks that, before any operation,
// /metrics reads the same population and update count as /stats: the
// counters continue from the snapshot's totals instead of restarting at 0.
func TestRecoveredMetricsMatchStats(t *testing.T) {
	dir := t.TempDir()
	s := startServerCfg(t, func(s *Server) {
		s.SetObs(obs.NewSink(obs.NewRegistry(), nil))
		s.SetLease(time.Minute) // disconnects at Close journal nothing
		if err := s.SetPersist(dir, 0); err != nil {
			t.Fatal(err)
		}
	})
	for i := 1; i <= 5; i++ {
		c, err := DialClient(s.Addr(), uint64(i), geom.Pt(float64(i)*0.15, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.Tick(geom.Pt(float64(i)*0.15, 0.9))
	}
	app, err := DialApp(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if _, err := app.RegisterKNN(1, geom.Pt(0.5, 0.5), 2, true); err != nil {
		t.Fatal(err)
	}
	if _, err := app.RegisterRange(2, geom.R(0.2, 0.2, 0.8, 0.8)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "five objects and their updates", func() bool {
		var n int
		var st core.Stats
		_ = s.do(func() { n, st = s.mon.NumObjects(), s.mon.Stats() })
		return n == 5 && st.SourceUpdates >= 5
	})
	var snapErr error
	if err := s.do(func() { snapErr = s.snapshotNow() }); err != nil {
		t.Fatal(err)
	}
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	_ = s.Close()

	var rs core.ReplayStats
	s2 := startServerCfg(t, func(s *Server) {
		s.SetObs(obs.NewSink(obs.NewRegistry(), nil))
		if rs, err = s.Recover(dir); err != nil {
			t.Fatal(err)
		}
	})
	if rs.Entries != 0 {
		t.Fatalf("recovery replayed %d journal entries, want an empty tail", rs.Entries)
	}
	srv := httptest.NewServer(s2.AdminHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Objects int        `json:"objects"`
		Queries int        `json:"queries"`
		Stats   core.Stats `json:"stats"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Objects != 5 || stats.Queries != 2 || stats.Stats.SourceUpdates < 5 {
		t.Fatalf("recovered /stats = %+v, want 5 objects, 2 queries and the first life's updates", stats)
	}
	fams := scrape(t, srv.URL)
	for _, tc := range []struct {
		name string
		want int64
	}{
		{"srb_objects", int64(stats.Objects)},
		{"srb_queries", int64(stats.Queries)},
		{"srb_updates_total", stats.Stats.SourceUpdates},
	} {
		f := fams[tc.name]
		if f == nil {
			t.Fatalf("recovered /metrics serves no %s", tc.name)
		}
		if got := f.Samples[tc.name]; int64(got) != tc.want {
			t.Errorf("recovered /metrics %s = %g, /stats says %d", tc.name, got, tc.want)
		}
	}
}
