package remote

// Integration tests for the fault-tolerance layer: reconnect/resume with
// session leases, crash recovery from snapshot + journal, and the end-to-end
// chaos differential — under seeded drop/dup/delay/sever faults the journaled
// history must recover into a monitor bit-identical to the live one.

import (
	"bytes"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"srb/internal/chaos"
	"srb/internal/core"
	"srb/internal/geom"
	"srb/internal/obs"
	"srb/internal/query"
)

// startServerCfg is startServer with a configuration hook that runs between
// NewServer and Serve (for SetWorkers, SetLease, SetPersist, ...).
func startServerCfg(t *testing.T, cfg func(*Server)) *Server {
	t.Helper()
	s, err := NewServer("127.0.0.1:0", core.Options{GridM: 10})
	if err != nil {
		t.Fatal(err)
	}
	s.SetLogf(nil)
	cfg(s)
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

// dropConn kills the client's current connection without the TBye goodbye,
// simulating an abrupt network loss.
func dropConn(c *MobileClient) {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	_ = conn.Close()
}

// normalizedNow pins the monitor clock before a snapshot so live and
// recovered state can be compared bit-for-bit (the clock otherwise advances
// with wall time).
const normalizedNow = 4242.0

// captureState snapshots the server's live monitor with the clock pinned.
func captureState(t *testing.T, s *Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	var err error
	if derr := s.do(func() {
		s.mon.SetTime(normalizedNow)
		err = s.mon.SaveSnapshot(&buf)
	}); derr != nil {
		t.Fatal(derr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// settle drives the system to quiescence over a clean link: regions are
// re-pushed until every live client holds a region containing its true
// position. A client granted a region it has already left reports
// immediately, so the sweep converges; once it holds, no client has a report
// left to send and the trailing no-op drains anything still queued.
func settle(t *testing.T, s *Server, clients []*MobileClient, pos []geom.Point) {
	t.Helper()
	defer func() {
		if t.Failed() {
			debugSettle(t, s, clients, pos)
		}
	}()
	waitFor(t, "clients settled on current regions", func() bool {
		if err := s.ResyncRegions(); err != nil {
			return false
		}
		for i, c := range clients {
			if c == nil {
				continue
			}
			r, ok := c.Region()
			if !ok {
				// No region on this connection yet — the resume hello or the
				// region push may have been lost while faults were active.
				// Re-report the position: the server attaches the session off
				// the update frame and replies with the current region.
				c.Tick(pos[i])
				return false
			}
			if !r.Contains(pos[i]) {
				return false
			}
		}
		return true
	})
	if err := s.do(func() {}); err != nil {
		t.Fatal(err)
	}
}

// debugSettle dumps the per-client and server-side view when settling times
// out, so a chaos-test failure explains which session got stuck and how.
func debugSettle(t *testing.T, s *Server, clients []*MobileClient, pos []geom.Point) {
	t.Helper()
	for i, c := range clients {
		if c == nil {
			continue
		}
		r, ok := c.Region()
		c.mu.Lock()
		rc := c.reconnects
		c.mu.Unlock()
		var srvR geom.Rect
		var srvOK, conn bool
		var last geom.Point
		_ = s.do(func() {
			srvR, srvOK = s.mon.SafeRegion(c.id)
			_, conn = s.clients[c.id]
			last, _ = s.mon.LastReported(c.id)
		})
		t.Logf("client %d: pos=%v region=%v ok=%v contains=%v reconnects=%d | server: region=%v ok=%v connected=%v last=%v",
			c.id, pos[i], r, ok, ok && r.Contains(pos[i]), rc, srvR, srvOK, conn, last)
	}
}

// recoverInto replays dir into a fresh (never served) server and returns its
// normalized snapshot for comparison against captureState output.
func recoverInto(t *testing.T, dir string) []byte {
	t.Helper()
	s2, err := NewServer("127.0.0.1:0", core.Options{GridM: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.SetLogf(nil)
	rs, err := s2.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rs.LastSeq == 0 {
		t.Fatal("recovery saw an empty journal")
	}
	if err := s2.mon.CheckInvariants(); err != nil {
		t.Fatalf("recovered monitor violates invariants: %v", err)
	}
	s2.mon.SetTime(normalizedNow)
	var buf bytes.Buffer
	if err := s2.mon.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func clampUnit(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func sortedEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestReconnectResumesSession(t *testing.T) {
	reg := obs.NewRegistry()
	s := startServerCfg(t, func(s *Server) {
		s.SetLease(time.Minute)
		s.SetObs(obs.NewSink(reg, nil))
	})
	c, err := DialClientOpts(s.Addr(), 7, geom.Pt(0.5, 0.5), ClientOptions{
		Reconnect:  true,
		BackoffMin: 2 * time.Millisecond,
		BackoffMax: 20 * time.Millisecond,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	app, err := DialApp(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if _, err := app.RegisterRange(1, geom.R(0.4, 0.4, 0.6, 0.6)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first region", func() bool { _, ok := c.Region(); return ok })

	dropConn(c)
	waitFor(t, "session resumed with a fresh region", func() bool {
		_, ok := c.Region()
		return c.Reconnects() >= 1 && ok
	})
	// The lease held: the server resumed the session instead of re-adding
	// the object from scratch.
	if n := reg.Counter("srb_server_reconnects_total", "", "outcome", "resumed").Value(); n < 1 {
		t.Fatalf("resumed reconnects = %d, want >= 1", n)
	}
	var objs int
	_ = s.do(func() { objs = s.mon.NumObjects() })
	if objs != 1 {
		t.Fatalf("objects after resume = %d, want 1", objs)
	}
	// The resumed connection carries updates as before.
	c.Tick(geom.Pt(0.95, 0.95))
	waitFor(t, "update over the resumed connection", func() bool {
		var p geom.Point
		var ok bool
		_ = s.do(func() { p, ok = s.mon.LastReported(7) })
		return ok && p.X > 0.9
	})
}

// dropAppConn kills the app handle's current connection without a goodbye,
// simulating an abrupt network loss on the application-server side.
func dropAppConn(a *AppClient) {
	a.mu.Lock()
	conn := a.conn
	a.mu.Unlock()
	_ = conn.Close()
}

// TestRegisterIdempotentReplaces pins the wire-layer idempotency contract:
// registering an already-registered ID replaces the query (needed so a
// retried register frame or a reconnected app server is safe) instead of
// erroring like the monitor API does.
func TestRegisterIdempotentReplaces(t *testing.T) {
	s := startServerCfg(t, func(*Server) {})
	c, err := DialClient(s.Addr(), 5, geom.Pt(0.55, 0.55))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	app, err := DialApp(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	app.SetLogf(nil)
	waitFor(t, "object added", func() bool {
		var n int
		_ = s.do(func() { n = s.mon.NumObjects() })
		return n == 1
	})

	res, err := app.RegisterRange(1, geom.R(0.4, 0.4, 0.7, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	if !sortedEqual(res, []uint64{5}) {
		t.Fatalf("initial results = %v, want [5]", res)
	}
	// Same ID, different geometry: must replace, not error.
	res, err = app.RegisterRange(1, geom.R(0, 0, 0.2, 0.2))
	if err != nil {
		t.Fatalf("re-register errored: %v", err)
	}
	if len(res) != 0 {
		t.Fatalf("replaced query results = %v, want empty", res)
	}
	var nq int
	_ = s.do(func() { nq = s.mon.NumQueries() })
	if nq != 1 {
		t.Fatalf("queries after replace = %d, want 1", nq)
	}
	// The replacement is live: moving into the new rect pushes a result.
	c.Tick(geom.Pt(0.1, 0.1))
	waitFor(t, "push for the replacing query", func() bool {
		select {
		case u := <-app.Updates():
			return u.Query == 1 && sortedEqual(u.Results, []uint64{5})
		default:
			return false
		}
	})
}

// TestAppReconnectReregisters cuts the application server's connection and
// checks the handle re-dials, re-registers its queries, and keeps receiving
// result pushes — the app-side counterpart of TestReconnectResumesSession.
func TestAppReconnectReregisters(t *testing.T) {
	s := startServerCfg(t, func(*Server) {})
	c, err := DialClient(s.Addr(), 5, geom.Pt(0.55, 0.55))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	app, err := DialAppOpts(s.Addr(), AppOptions{
		Reconnect:  true,
		BackoffMin: 2 * time.Millisecond,
		BackoffMax: 20 * time.Millisecond,
		RPCTimeout: 250 * time.Millisecond,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	app.SetLogf(nil)
	waitFor(t, "object added", func() bool {
		var n int
		_ = s.do(func() { n = s.mon.NumObjects() })
		return n == 1
	})

	if _, err := app.RegisterRange(1, geom.R(0.4, 0.4, 0.7, 0.7)); err != nil {
		t.Fatal(err)
	}
	dropAppConn(app)
	waitFor(t, "app handle reconnected", func() bool { return app.Reconnects() >= 1 })
	// The re-registered query must be live server-side again (the old
	// session's teardown may briefly deregister it first).
	waitFor(t, "query re-registered", func() bool {
		var nq int
		_ = s.do(func() { nq = s.mon.NumQueries() })
		return nq == 1
	})
	// Registering another query over the fresh session still works, and
	// pushes flow: the re-registration's initial results and subsequent
	// moves arrive on Updates.
	if _, err := app.RegisterKNN(2, geom.Pt(0.5, 0.5), 1, true); err != nil {
		t.Fatalf("register after reconnect: %v", err)
	}
	c.Tick(geom.Pt(0.1, 0.1))
	waitFor(t, "push for query 1 after reconnect", func() bool {
		select {
		case u := <-app.Updates():
			return u.Query == 1 && len(u.Results) == 0
		default:
			return false
		}
	})
}

func TestLeaseExpiryRemovesObject(t *testing.T) {
	s := startServerCfg(t, func(s *Server) { s.SetLease(50 * time.Millisecond) })
	c, err := DialClient(s.Addr(), 3, geom.Pt(0.2, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitFor(t, "object added", func() bool {
		var n int
		_ = s.do(func() { n = s.mon.NumObjects() })
		return n == 1
	})
	dropConn(c)
	waitFor(t, "lease expiry removes the object", func() bool {
		var n int
		_ = s.do(func() { n = s.mon.NumObjects() })
		return n == 0
	})
	var timers int
	_ = s.do(func() { timers = len(s.leases) })
	if timers != 0 {
		t.Fatalf("%d lease timers left after expiry", timers)
	}
}

func TestByeReleasesObjectDespiteLease(t *testing.T) {
	s := startServerCfg(t, func(s *Server) { s.SetLease(time.Minute) })
	c, err := DialClient(s.Addr(), 9, geom.Pt(0.4, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "object added", func() bool {
		var n int
		_ = s.do(func() { n = s.mon.NumObjects() })
		return n == 1
	})
	_ = c.Close() // clean TBye: no lease, immediate removal
	waitFor(t, "clean departure removes the object", func() bool {
		var n int
		_ = s.do(func() { n = s.mon.NumObjects() })
		return n == 0
	})
}

// TestRecoverBitIdentical drives a fault-free workload — registrations of
// every query kind, random-walk updates, a mid-run snapshot, a clean
// departure and a deregistration — and checks that Recover rebuilds the
// monitor bit-for-bit (regions, results, stats) from snapshot + journal.
func TestRecoverBitIdentical(t *testing.T) {
	dir := t.TempDir()
	s := startServerCfg(t, func(s *Server) {
		s.SetLease(time.Minute)
		if err := s.SetPersist(dir, 0); err != nil {
			t.Fatal(err)
		}
	})
	const n = 6
	clients := make([]*MobileClient, n)
	pos := make([]geom.Point, n)
	rng := rand.New(rand.NewSource(11))
	for i := range clients {
		pos[i] = geom.Pt(rng.Float64(), rng.Float64())
		c, err := DialClient(s.Addr(), uint64(i+1), pos[i])
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		defer c.Close()
	}
	app, err := DialApp(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if _, err := app.RegisterRange(1, geom.R(0.2, 0.2, 0.7, 0.7)); err != nil {
		t.Fatal(err)
	}
	if _, err := app.RegisterCount(2, geom.R(0.5, 0.5, 0.9, 0.9)); err != nil {
		t.Fatal(err)
	}
	if _, err := app.RegisterKNN(3, geom.Pt(0.3, 0.6), 3, true); err != nil {
		t.Fatal(err)
	}
	if _, err := app.RegisterWithinDistance(4, geom.Pt(0.6, 0.4), 0.2); err != nil {
		t.Fatal(err)
	}

	step := func(rounds int) {
		for r := 0; r < rounds; r++ {
			for i, c := range clients {
				if c == nil {
					continue
				}
				pos[i] = geom.Pt(clampUnit(pos[i].X+0.08*(rng.Float64()-0.5)),
					clampUnit(pos[i].Y+0.08*(rng.Float64()-0.5)))
				c.Tick(pos[i])
			}
			time.Sleep(time.Millisecond)
		}
	}
	step(30)

	// Mid-run snapshot: recovery must load it and replay only the journal
	// suffix appended after it.
	var snapErr error
	if err := s.do(func() { snapErr = s.snapshotNow() }); err != nil {
		t.Fatal(err)
	}
	if snapErr != nil {
		t.Fatal(snapErr)
	}

	// One client leaves cleanly (a journaled removal), one query is dropped.
	_ = clients[0].Close()
	clients[0] = nil
	if err := app.Deregister(2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "departure and deregistration applied", func() bool {
		var nq, no int
		_ = s.do(func() { nq, no = s.mon.NumQueries(), s.mon.NumObjects() })
		return nq == 3 && no == n-1
	})
	step(30)

	settle(t, s, clients, pos)
	live := captureState(t, s)
	_ = s.Close() // no further journal writes; the files are now stable

	rec := recoverInto(t, dir)
	if !bytes.Equal(live, rec) {
		t.Fatalf("recovered state differs from live state (%d vs %d snapshot bytes)", len(live), len(rec))
	}
}

// TestChaosDifferential is the end-to-end fault-tolerance acceptance test:
// a fleet of reconnecting clients runs a workload through seeded
// drop/dup/delay/sever faults with session leases, periodic snapshots and
// journaling enabled. After driving the system to quiescence over a clean
// link, (a) the settled range results must match a brute-force evaluation of
// the true client positions, and (b) recovering the snapshot + journal into
// a fresh server must reproduce the live monitor bit-identically.
func TestChaosDifferential(t *testing.T) {
	dir := t.TempDir()
	faulty := chaos.Config{Seed: 42, Drop: 0.05, Dup: 0.03, DelayRate: 0.05, Delay: time.Millisecond, Sever: 0.02}
	out := faulty
	out.Sever = 0 // mobile conns sever via the inbound lane; keep app pushes flowing
	inj := chaos.NewInjector(faulty, out)
	inj.SetEnabled(false) // clean link while the fleet assembles
	s := startServerCfg(t, func(s *Server) {
		s.SetWorkers(2)
		s.SetLease(time.Minute)
		s.SetProbeTimeout(50 * time.Millisecond)
		s.SetChaos(inj)
		if err := s.SetPersist(dir, 100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	})

	const n = 8
	clients := make([]*MobileClient, n)
	pos := make([]geom.Point, n)
	rng := rand.New(rand.NewSource(5))
	for i := range clients {
		pos[i] = geom.Pt(rng.Float64(), rng.Float64())
		c, err := DialClientOpts(s.Addr(), uint64(i+1), pos[i], ClientOptions{
			Reconnect:  true,
			BackoffMin: 2 * time.Millisecond,
			BackoffMax: 30 * time.Millisecond,
			Seed:       int64(i) + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		defer c.Close()
	}
	app, err := DialApp(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	app.SetLogf(nil)
	go func() { // result pushes are not asserted on; keep the stream drained
		for range app.Updates() {
		}
	}()
	rect := geom.R(0.25, 0.25, 0.75, 0.75)
	if _, err := app.RegisterRange(1, rect); err != nil {
		t.Fatal(err)
	}
	if _, err := app.RegisterCount(2, geom.R(0.1, 0.5, 0.6, 0.95)); err != nil {
		t.Fatal(err)
	}
	if _, err := app.RegisterKNN(3, geom.Pt(0.5, 0.5), 3, true); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "fleet assembled", func() bool {
		var objs int
		_ = s.do(func() { objs = s.mon.NumObjects() })
		return objs == n
	})

	inj.SetEnabled(true)
	for step := 0; step < 200; step++ {
		for i, c := range clients {
			pos[i] = geom.Pt(clampUnit(pos[i].X+0.06*(rng.Float64()-0.5)),
				clampUnit(pos[i].Y+0.06*(rng.Float64()-0.5)))
			c.Tick(pos[i])
		}
		time.Sleep(time.Millisecond)
	}
	inj.SetEnabled(false)

	settle(t, s, clients, pos)

	var reconnects int64
	for _, c := range clients {
		reconnects += c.Reconnects()
	}
	if reconnects == 0 {
		t.Fatal("chaos run triggered no reconnects; the fault schedule is too tame to prove anything")
	}

	// Settled results must agree with a brute-force evaluation over the true
	// positions: after the resync sweep every client sits inside the same
	// safe region the server holds for it, and within a safe region query
	// membership cannot change — so the server's view (built from possibly
	// older in-region positions) classifies exactly like the truth.
	var got []uint64
	var ok bool
	_ = s.do(func() { got, ok = s.mon.Results(query.ID(1)) })
	if !ok {
		t.Fatal("range query lost during the chaos run")
	}
	var want []uint64
	for i := range clients {
		if rect.Contains(pos[i]) {
			want = append(want, uint64(i+1))
		}
	}
	if !sortedEqual(got, want) {
		t.Fatalf("settled range results = %v, want brute-force %v", got, want)
	}

	live := captureState(t, s)
	_ = s.Close()

	rec := recoverInto(t, dir)
	if !bytes.Equal(live, rec) {
		t.Fatalf("recovered state differs from live state after chaos (%d vs %d snapshot bytes)", len(live), len(rec))
	}
}

// TestCloseDuringPeriodicSnapshots closes a server whose event loop is
// re-arming the snapshot timer every millisecond. The loop is the timer's
// only writer after Serve starts, so Close must not touch it; under -race a
// Close that stops the timer itself reports the unsynchronized access.
func TestCloseDuringPeriodicSnapshots(t *testing.T) {
	dir := t.TempDir()
	s := startServerCfg(t, func(s *Server) {
		if err := s.SetPersist(dir, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
	waitFor(t, "periodic snapshot written", func() bool {
		_, err := os.Stat(filepath.Join(dir, snapshotFile))
		return err == nil
	})
	time.Sleep(50 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownClosesJournal checks that a server's shutdown releases the
// journal file SetPersist opened: every server life in one process would
// otherwise leak a descriptor.
func TestShutdownClosesJournal(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", core.Options{GridM: 10})
	if err != nil {
		t.Fatal(err)
	}
	s.SetLogf(nil)
	if err := s.SetPersist(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = s.Serve()
	}()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	<-served
	if err := s.persist.file.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("journal file still open after shutdown: Close returned %v, want os.ErrClosed", err)
	}
}

// TestSnapshotUnderConcurrentUpdates exercises the admin /snapshot endpoint
// while update batches are in flight: each snapshot must serialize through
// the event loop and capture a consistent state that restores into a monitor
// passing its invariant checks.
func TestSnapshotUnderConcurrentUpdates(t *testing.T) {
	s := startServerCfg(t, func(s *Server) { s.SetWorkers(4) })
	const n = 16
	clients := make([]*MobileClient, n)
	for i := range clients {
		start := geom.Pt(float64(i%4)*0.25+0.1, float64(i/4)*0.25+0.1)
		c, err := DialClient(s.Addr(), uint64(i+1), start)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		defer c.Close()
	}
	app, err := DialApp(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if _, err := app.RegisterRange(1, geom.R(0.2, 0.2, 0.8, 0.8)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "fleet assembled", func() bool {
		var objs int
		_ = s.do(func() { objs = s.mon.NumObjects() })
		return objs == n
	})

	srv := httptest.NewServer(s.AdminHandler())
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *MobileClient) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i) + 100))
			p := geom.Pt(rng.Float64(), rng.Float64())
			for {
				select {
				case <-stop:
					return
				default:
				}
				p = geom.Pt(clampUnit(p.X+0.1*(rng.Float64()-0.5)), clampUnit(p.Y+0.1*(rng.Float64()-0.5)))
				c.Tick(p)
				time.Sleep(time.Millisecond)
			}
		}(i, c)
	}
	for round := 0; round < 5; round++ {
		resp, err := http.Get(srv.URL + "/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		restored := core.New(core.Options{GridM: 10}, core.ProberFunc(func(uint64) geom.Point {
			return geom.Point{}
		}), nil)
		err = restored.LoadSnapshot(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.CheckInvariants(); err != nil {
			t.Fatalf("round %d: restored snapshot violates invariants: %v", round, err)
		}
		if restored.NumObjects() != n || restored.NumQueries() != 1 {
			t.Fatalf("round %d: restored %d objects / %d queries, want %d / 1",
				round, restored.NumObjects(), restored.NumQueries(), n)
		}
	}
	close(stop)
	wg.Wait()
}
