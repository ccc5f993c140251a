package remote

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"srb/internal/geom"
	"srb/internal/obs"
	"srb/internal/wire"
)

// collectTraces gathers hook-delivered trace IDs behind a lock, since hooks
// run on client goroutines.
type collectTraces struct {
	mu      sync.Mutex
	sent    []uint64
	granted []uint64
}

func (c *collectTraces) hooks() ClientHooks {
	return ClientHooks{
		UpdateSent: func(tr uint64, err error) {
			c.mu.Lock()
			c.sent = append(c.sent, tr)
			c.mu.Unlock()
		},
		RegionGranted: func(tr uint64) {
			c.mu.Lock()
			c.granted = append(c.granted, tr)
			c.mu.Unlock()
		},
	}
}

func (c *collectTraces) lastSent() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.sent) == 0 {
		return 0
	}
	return c.sent[len(c.sent)-1]
}

func (c *collectTraces) grantedHas(tr uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, g := range c.granted {
		if g == tr {
			return true
		}
	}
	return false
}

// TestTraceEchoUpdateToGrant pins the causal-ID contract end to end: the
// trace minted for a location update is echoed on the safe-region grant that
// update produces, and both ends of the chain — update receipt and grant —
// land in the server's flight recorder under the same trace.
func TestTraceEchoUpdateToGrant(t *testing.T) {
	s := startServer(t)
	fr := obs.NewFlightRecorder(1024, t.TempDir())
	t.Cleanup(fr.Close)
	s.SetFlightRecorder(fr)

	var traces collectTraces
	c, err := DialClientOpts(s.Addr(), 42, geom.Pt(0.1, 0.1), ClientOptions{Hooks: traces.hooks()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	app, err := DialApp(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	// A registered query makes safe regions meaningful: crossing its boundary
	// forces a recompute and hence a grant attributable to the update.
	if _, err := app.RegisterRange(1, geom.R(0.4, 0.4, 0.6, 0.6)); err != nil {
		t.Fatal(err)
	}

	c.Report(geom.Pt(0.5, 0.5)) // into the query: the region must change
	waitFor(t, "update trace minted", func() bool { return traces.lastSent() != 0 })
	tr := traces.lastSent()
	waitFor(t, "grant echoing the update's trace", func() bool { return traces.grantedHas(tr) })

	// The flight recorder must hold the complete server-side chain.
	waitFor(t, "flight recorder chain", func() bool {
		var update, grant bool
		for _, ev := range fr.Events() {
			if ev.Trace != tr {
				continue
			}
			switch ev.Kind {
			case obs.FlightUpdate:
				update = true
			case obs.FlightGrant:
				grant = true
			}
		}
		return update && grant
	})
}

// TestAdminQueriesEndpoint checks /queries against a live instrumented
// server: the ledger's top-K view is served hottest-first with the
// unattributed and retired buckets alongside, and ?k caps the list.
func TestAdminQueriesEndpoint(t *testing.T) {
	s, _ := startObsServer(t)
	srv := httptest.NewServer(s.AdminHandler())
	defer srv.Close()

	for i := 1; i <= 4; i++ {
		c, err := DialClient(s.Addr(), uint64(i), geom.Pt(float64(i)*0.2, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	app, err := DialApp(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if _, err := app.RegisterRange(1, geom.R(0.1, 0.1, 0.9, 0.9)); err != nil {
		t.Fatal(err)
	}
	if _, err := app.RegisterKNN(2, geom.Pt(0.5, 0.5), 2, true); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	code, body := get("/queries")
	if code != http.StatusOK {
		t.Fatalf("/queries status %d: %s", code, body)
	}
	var payload struct {
		Hot []struct {
			Query uint64 `json:"query"`
			Kind  string `json:"kind"`
		} `json:"hot"`
		RetiredN int64 `json:"retired_queries"`
	}
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatalf("/queries is not valid JSON: %v\n%s", err, body)
	}
	if len(payload.Hot) != 2 {
		t.Fatalf("/queries hot = %d entries, want 2: %s", len(payload.Hot), body)
	}
	for _, h := range payload.Hot {
		if h.Query == 0 || h.Kind == "" {
			t.Errorf("/queries entry lacks identity: %+v", h)
		}
	}

	code, body = get("/queries?k=1")
	if code != http.StatusOK {
		t.Fatalf("/queries?k=1 status %d", code)
	}
	var capped struct {
		Hot []json.RawMessage `json:"hot"`
	}
	if err := json.Unmarshal(body, &capped); err != nil {
		t.Fatal(err)
	}
	if len(capped.Hot) != 1 {
		t.Errorf("/queries?k=1 returned %d entries, want 1", len(capped.Hot))
	}

	// Deregistering folds the entry into the retired bucket. The deregister
	// frame is fire-and-forget, so poll until the event loop processed it.
	if err := app.Deregister(2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "deregistered query folded into retired bucket", func() bool {
		code, body := get("/queries")
		if code != http.StatusOK {
			return false
		}
		if err := json.Unmarshal(body, &payload); err != nil {
			return false
		}
		return len(payload.Hot) == 1 && payload.RetiredN == 1
	})
}

// TestAdminQueriesFlightrecDisabled checks the dark surface: without a sink
// the ledger endpoint answers 404, and without a recorder so does
// /debug/flightrec.
func TestAdminQueriesFlightrecDisabled(t *testing.T) {
	s := startServer(t)
	srv := httptest.NewServer(s.AdminHandler())
	defer srv.Close()
	for _, path := range []string{"/queries", "/debug/flightrec"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s disabled: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestFlightrecEndpointServesRing checks /debug/flightrec streams the ring as
// NDJSON once a recorder is attached and a workload recorded into it.
func TestFlightrecEndpointServesRing(t *testing.T) {
	s := startServer(t)
	fr := obs.NewFlightRecorder(1024, t.TempDir())
	t.Cleanup(fr.Close)
	s.SetFlightRecorder(fr)
	srv := httptest.NewServer(s.AdminHandler())
	defer srv.Close()

	c, err := DialClient(s.Addr(), 9, geom.Pt(0.2, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Report(geom.Pt(0.8, 0.8))
	waitFor(t, "flight events recorded", func() bool { return fr.Total() > 0 })

	resp, err := http.Get(srv.URL + "/debug/flightrec")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/flightrec status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	n := 0
	for {
		var ev obs.Event
		if err := dec.Decode(&ev); err != nil {
			break
		}
		if ev.TS == 0 || ev.Kind == "" {
			t.Errorf("flight event missing timestamp or kind: %+v", ev)
		}
		n++
	}
	if n == 0 {
		t.Fatal("/debug/flightrec served no events after a workload")
	}
}

// TestSLOBreachDumpsFlightRecorder sets an unmeetable event-loop SLO and
// checks a single request is enough to trigger an automatic black-box dump
// whose file carries the breach marker.
func TestSLOBreachDumpsFlightRecorder(t *testing.T) {
	s := startServer(t)
	dir := t.TempDir()
	fr := obs.NewFlightRecorder(1024, dir)
	t.Cleanup(fr.Close)
	s.SetFlightRecorder(fr)
	s.SetSLO(time.Nanosecond) // everything breaches

	c, err := DialClient(s.Addr(), 3, geom.Pt(0.3, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Report(geom.Pt(0.7, 0.7))

	waitFor(t, "slo-breach dump file", func() bool { return len(fr.DumpPaths()) > 0 })
	paths := fr.DumpPaths()
	buf, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf), `"note":"slo-breach"`) {
		t.Errorf("dump %s lacks the slo-breach marker", paths[0])
	}
	if !strings.Contains(string(buf), `"kind":"slow_op"`) {
		t.Errorf("dump %s lacks the slow-op breach event", paths[0])
	}
}

// TestReconnectStormDumpsFlightRecorder fires a burst of resume hellos and
// checks the storm detector preserves the evidence with an automatic dump.
func TestReconnectStormDumpsFlightRecorder(t *testing.T) {
	s := startServer(t)
	s.SetLease(time.Minute)
	dir := t.TempDir()
	fr := obs.NewFlightRecorder(1024, dir)
	t.Cleanup(fr.Close)
	s.SetFlightRecorder(fr)

	// Each raw connection announces a resume and hangs up: rejoin or resume,
	// every one counts toward the storm window.
	for i := 0; i < reconnectStormCount; i++ {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		codec := wire.NewCodec(conn)
		hello := wire.Message{Type: wire.THello, Obj: 77, Resume: true, Trace: uint64(1000 + i)}
		hello.SetPoint(geom.Pt(0.5, 0.5))
		if err := codec.Send(hello); err != nil {
			t.Fatal(err)
		}
		// Wait for the grant so the server has processed the hello before the
		// next resume supersedes this session.
		if _, err := codec.Recv(); err != nil {
			t.Fatalf("resume %d: no grant: %v", i, err)
		}
		conn.Close()
	}

	waitFor(t, "reconnect-storm dump file", func() bool { return len(fr.DumpPaths()) > 0 })
	buf, err := os.ReadFile(fr.DumpPaths()[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf), `"note":"reconnect-storm"`) {
		t.Errorf("dump lacks the reconnect-storm marker")
	}
	if !strings.Contains(string(buf), `"kind":"reconnect"`) {
		t.Errorf("dump lacks the reconnect events that caused it")
	}
}

// TestFlightEventsPerUpdate measures what one location update costs in ring
// events, with and without a sink: the figure that, with the ring size, sets
// the post-mortem window in updates (OPERATIONS.md "The flight recorder").
// Without a sink the server records only the wire-level kinds; with one the
// monitor and the pipeline record into the same ring.
func TestFlightEventsPerUpdate(t *testing.T) {
	const clients, rounds = 12, 10
	perUpdate := func(instrumented bool) float64 {
		fr := obs.NewFlightRecorder(1<<16, "")
		s := startServerCfg(t, func(s *Server) {
			s.SetFlightRecorder(fr)
			if instrumented {
				s.SetObs(obs.NewSink(obs.NewRegistry(), nil))
			}
			s.SetWorkers(2)
		})
		var mcs []*MobileClient
		for i := 0; i < clients; i++ {
			c, err := DialClient(s.Addr(), uint64(i+1), geom.Pt(0.05+0.075*float64(i), 0.5))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			mcs = append(mcs, c)
		}
		app, err := DialApp(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer app.Close()
		if _, err := app.RegisterRange(1, geom.R(0.3, 0.3, 0.7, 0.7)); err != nil {
			t.Fatal(err)
		}
		if _, err := app.RegisterKNN(2, geom.Pt(0.5, 0.5), 3, true); err != nil {
			t.Fatal(err)
		}
		updates := func() (n int64) {
			_ = s.do(func() { n = s.mon.Stats().SourceUpdates })
			return n
		}
		u0, e0 := updates(), fr.Total()
		for r := 0; r < rounds; r++ {
			for i, c := range mcs {
				c.Report(geom.Pt(0.05+0.075*float64((i+r)%clients), 0.2+0.06*float64(r)))
			}
		}
		waitFor(t, "updates processed", func() bool { return updates()-u0 >= clients*rounds })
		n := updates() - u0
		for _, ev := range fr.Events() {
			if !instrumented && strings.Contains(ev.Kind, ".") {
				t.Fatalf("uninstrumented server recorded layer event %q", ev.Kind)
			}
		}
		return float64(fr.Total()-e0) / float64(n)
	}
	off, on := perUpdate(false), perUpdate(true)
	t.Logf("ring events per update: %.2f without a sink, %.2f with one", off, on)
	if off < 2 {
		t.Errorf("%.2f events per update without a sink; want at least the update and its grant", off)
	}
	if on < off+1 {
		t.Errorf("%.2f events per update with a sink; want at least one more (the core.update span) than %.2f", on, off)
	}
}
