package remote

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"srb/internal/core"
	"srb/internal/geom"
)

func startServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer("127.0.0.1:0", core.Options{GridM: 10})
	if err != nil {
		t.Fatal(err)
	}
	s.SetLogf(nil)
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
	return s
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestClientReceivesRegionAndReportsOnExit(t *testing.T) {
	s := startServer(t)
	c, err := DialClient(s.Addr(), 1, geom.Pt(0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	app, err := DialApp(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	// Registering a query forces safe regions to be meaningful; the client
	// should have received one after its first report.
	if _, err := app.RegisterRange(1, geom.R(0.4, 0.4, 0.6, 0.6)); err != nil {
		t.Fatal(err)
	}
	c.Tick(geom.Pt(0.51, 0.5)) // likely inside; report only if no region yet
	waitFor(t, "safe region", func() bool { _, ok := c.Region(); return ok })

	rgn, _ := c.Region()
	if !rgn.Contains(geom.Pt(0.51, 0.5)) {
		// The region corresponds to the last reported point; at minimum it
		// contains what we reported.
		t.Logf("region %v does not contain current tick; acceptable if granted for an earlier report", rgn)
	}
	// March out of the region; the client must report and obtain a new one.
	upBefore, _ := c.Stats()
	p := geom.Pt(0.9, 0.9)
	c.Tick(p)
	waitFor(t, "update sent", func() bool { up, _ := c.Stats(); return up > upBefore })
	waitFor(t, "fresh region containing new position", func() bool {
		r, ok := c.Region()
		return ok && r.Contains(p)
	})
}

func TestRangeQueryOverNetwork(t *testing.T) {
	s := startServer(t)
	var clients []*MobileClient
	pts := []geom.Point{{X: 0.45, Y: 0.45}, {X: 0.55, Y: 0.55}, {X: 0.9, Y: 0.9}}
	for i, p := range pts {
		c, err := DialClient(s.Addr(), uint64(i+1), p)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
	}
	// Ensure all hellos are processed before registering.
	waitFor(t, "objects registered", func() bool {
		n := 0
		_ = s.do(func() { n = s.mon.NumObjects() })
		return n == 3
	})

	app, err := DialApp(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	res, err := app.RegisterRange(7, geom.R(0.4, 0.4, 0.6, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(res, func(i, j int) bool { return res[i] < res[j] })
	if len(res) != 2 || res[0] != 1 || res[1] != 2 {
		t.Fatalf("initial results = %v, want [1 2]", res)
	}

	// Client 3 walks into the rectangle: an update must be pushed.
	go func() {
		p := geom.Pt(0.9, 0.9)
		for i := 0; i < 60; i++ {
			p = geom.Pt(p.X-0.007, p.Y-0.007)
			clients[2].Tick(p)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case u := <-app.Updates():
			if u.Query == 7 && len(u.Results) == 3 {
				return // client 3 joined the result
			}
		case <-deadline:
			t.Fatal("no result update pushed")
		}
	}
}

func TestKNNQueryOverNetworkWithProbes(t *testing.T) {
	s := startServer(t)
	for i := 1; i <= 8; i++ {
		c, err := DialClient(s.Addr(), uint64(i), geom.Pt(float64(i)*0.1, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	waitFor(t, "objects registered", func() bool {
		n := 0
		_ = s.do(func() { n = s.mon.NumObjects() })
		return n == 8
	})
	app, err := DialApp(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	res, err := app.RegisterKNN(3, geom.Pt(0.12, 0.5), 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0] != 1 || res[1] != 2 {
		t.Fatalf("kNN results = %v, want [1 2]", res)
	}
}

// TestDuplicateQueryReplaces: the monitor API rejects duplicate IDs, but the
// wire layer replaces them — registration must be idempotent so a retried
// frame or a reconnected app server is safe (see TestRegisterIdempotentReplaces
// for the full contract).
func TestDuplicateQueryReplaces(t *testing.T) {
	s := startServer(t)
	app, err := DialApp(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if _, err := app.RegisterRange(1, geom.R(0, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := app.RegisterRange(1, geom.R(0, 0, 1, 1)); err != nil {
		t.Fatalf("duplicate registration must replace, got error: %v", err)
	}
	var nq int
	_ = s.do(func() { nq = s.mon.NumQueries() })
	if nq != 1 {
		t.Fatalf("queries after duplicate register = %d, want 1", nq)
	}
}

func TestAppDisconnectDeregisters(t *testing.T) {
	s := startServer(t)
	app, err := DialApp(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.RegisterRange(5, geom.R(0, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	_ = app.Close()
	waitFor(t, "query deregistered", func() bool {
		n := -1
		_ = s.do(func() { n = s.mon.NumQueries() })
		return n == 0
	})
}

// TestAppClientCloseJoinsReadLoop pins that AppClient.Close returns only
// after its read loop has exited, as MobileClient.Close does: right after
// Close the Updates channel must already be closed, so a consumer ranging
// over it ends and no goroutine of the handle outlives it.
func TestAppClientCloseJoinsReadLoop(t *testing.T) {
	s := startServer(t)
	for round := 0; round < 20; round++ {
		app, err := DialApp(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		app.SetLogf(nil)
		if err := app.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}
		select {
		case _, ok := <-app.Updates():
			if ok {
				t.Fatalf("round %d: Updates delivered a result after Close", round)
			}
		default:
			t.Fatalf("round %d: Updates still open after Close returned: the read loop outlived Close", round)
		}
	}
}

func TestClientDisconnectRemovesObject(t *testing.T) {
	s := startServer(t)
	c, err := DialClient(s.Addr(), 9, geom.Pt(0.2, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "object added", func() bool {
		n := 0
		_ = s.do(func() { n = s.mon.NumObjects() })
		return n == 1
	})
	_ = c.Close()
	waitFor(t, "object removed", func() bool {
		n := -1
		_ = s.do(func() { n = s.mon.NumObjects() })
		return n == 0
	})
}

func TestCountQueryOverNetwork(t *testing.T) {
	s := startServer(t)
	for i := 1; i <= 5; i++ {
		c, err := DialClient(s.Addr(), uint64(i), geom.Pt(float64(i)*0.1, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	waitFor(t, "objects registered", func() bool {
		n := 0
		_ = s.do(func() { n = s.mon.NumObjects() })
		return n == 5
	})
	app, err := DialApp(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	count, err := app.RegisterCount(11, geom.R(0.05, 0.4, 0.35, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3 (objects 1..3)", count)
	}
}

func TestWithinDistanceQueryOverNetwork(t *testing.T) {
	s := startServer(t)
	for i := 1; i <= 6; i++ {
		c, err := DialClient(s.Addr(), uint64(i), geom.Pt(float64(i)*0.1, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	waitFor(t, "objects registered", func() bool {
		n := 0
		_ = s.do(func() { n = s.mon.NumObjects() })
		return n == 6
	})
	app, err := DialApp(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	res, err := app.RegisterWithinDistance(21, geom.Pt(0.25, 0.5), 0.12)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(res, func(i, j int) bool { return res[i] < res[j] })
	if len(res) != 2 || res[0] != 2 || res[1] != 3 {
		t.Fatalf("results = %v, want [2 3]", res)
	}
}

func TestAdminHandler(t *testing.T) {
	s := startServer(t)
	for i := 1; i <= 4; i++ {
		c, err := DialClient(s.Addr(), uint64(i), geom.Pt(float64(i)*0.2, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	waitFor(t, "objects", func() bool {
		n := 0
		_ = s.do(func() { n = s.mon.NumObjects() })
		return n == 4
	})
	app, err := DialApp(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if _, err := app.RegisterRange(1, geom.R(0.1, 0.1, 0.7, 0.7)); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(s.AdminHandler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Objects int `json:"objects"`
		Queries int `json:"queries"`
		Clients int `json:"clients"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Objects != 4 || stats.Queries != 1 || stats.Clients != 4 {
		t.Fatalf("stats = %+v", stats)
	}

	resp, err = http.Get(srv.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	restored := core.New(core.Options{GridM: 10}, core.ProberFunc(func(uint64) geom.Point {
		return geom.Point{}
	}), nil)
	if err := restored.LoadSnapshot(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if restored.NumObjects() != 4 || restored.NumQueries() != 1 {
		t.Fatalf("snapshot restore: %d/%d", restored.NumObjects(), restored.NumQueries())
	}

	resp, err = http.Get(srv.URL + "/svg")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.HasPrefix(string(body), "<svg") {
		t.Fatalf("svg endpoint returned %q...", body[:min(40, len(body))])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestBatchedUpdatesOverNetwork runs the server with the batch pipeline
// enabled and hammers it with a burst of concurrent client reports: the event
// loop must coalesce them, apply them through the pipeline, and still deliver
// a correct region to every reporter and correct results to the watcher.
func TestBatchedUpdatesOverNetwork(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", core.Options{GridM: 10})
	if err != nil {
		t.Fatal(err)
	}
	s.SetLogf(nil)
	s.SetWorkers(4)
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

	const n = 20
	clients := make([]*MobileClient, n)
	for i := range clients {
		c, err := DialClient(s.Addr(), uint64(i+1), geom.Pt(0.1+0.03*float64(i%5), 0.1+0.03*float64(i/5)))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	waitFor(t, "objects registered", func() bool {
		cnt := 0
		_ = s.do(func() { cnt = s.mon.NumObjects() })
		return cnt == n
	})

	app, err := DialApp(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if _, err := app.RegisterRange(1, geom.R(0.6, 0.6, 0.9, 0.9)); err != nil {
		t.Fatal(err)
	}

	// Everyone jumps into the query rectangle at once: a burst the event loop
	// should coalesce into batches.
	var cwg sync.WaitGroup
	for i, c := range clients {
		cwg.Add(1)
		go func(i int, c *MobileClient) {
			defer cwg.Done()
			c.Tick(geom.Pt(0.65+0.01*float64(i%5), 0.65+0.01*float64(i/5)))
		}(i, c)
	}
	cwg.Wait()

	waitFor(t, "all objects in the range result", func() bool {
		var res []uint64
		_ = s.do(func() { res, _ = s.mon.Results(1) })
		return len(res) == n
	})
	// Every reporter must have received a region containing its new position.
	for i, c := range clients {
		i, c := i, c
		waitFor(t, "region delivery", func() bool {
			r, ok := c.Region()
			return ok && r.Contains(geom.Pt(0.65+0.01*float64(i%5), 0.65+0.01*float64(i/5)))
		})
	}
}
