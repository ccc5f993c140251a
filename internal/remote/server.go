// Package remote runs the monitoring framework over a network: a Server
// hosting the core Monitor, MobileClient runtimes that report location
// updates only when leaving their safe region, and AppClient handles that
// register continuous queries and stream result updates — the full system of
// Figure 1.1, with TCP/JSON substituted for the paper's SOAP/HTTP transport.
package remote

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sort"
	"sync"
	"time"

	"srb/internal/chaos"
	"srb/internal/core"
	"srb/internal/geom"
	"srb/internal/obs"
	"srb/internal/parallel"
	"srb/internal/query"
	"srb/internal/wire"
)

// probeTimeout bounds how long the server waits for a probe reply before
// falling back to the client's last reported location.
const probeTimeout = 2 * time.Second

// helloTimeout bounds the wait for a new connection's first frame, so a peer
// that connects and sends nothing cannot pin a handler goroutine forever.
const helloTimeout = 30 * time.Second

// Reconnect-storm detection: this many resume hellos inside the window
// trigger a flight-recorder dump (rate-limited by the recorder itself), so
// the evidence of what caused a mass reconnect survives the storm.
const (
	reconnectStormCount  = 8
	reconnectStormWindow = 10 * time.Second
)

// Server hosts a Monitor on a TCP listener. All monitor operations run on a
// single event-loop goroutine, matching the framework's sequential
// processing assumption.
type Server struct {
	opt  core.Options
	mon  *core.Monitor
	pipe *parallel.Pipeline // non-nil when batch updates are enabled
	ln   net.Listener
	reqs chan request
	done chan struct{}

	reg *obs.Registry // attached metrics registry, nil when off
	obs *srvObs       // event-loop instruments, nil when no sink is attached

	flight    *obs.FlightRecorder // the event ring, nil when off
	sloThresh time.Duration       // event-loop SLO; breaches trigger a flight dump

	inj     *chaos.Injector // fault injection on accepted conns, nil when off
	lease   time.Duration   // how long a disconnected session survives; 0 = none
	probeTO time.Duration   // per-probe reply deadline, default probeTimeout

	// State below is owned by the event loop goroutine.
	clients map[uint64]*clientConn
	watch   map[query.ID]*appConn
	leases  map[uint64]*time.Timer // pending lease expiries by object
	persist *persistState          // crash-recovery journal, nil when off

	// curTrace is the causal trace ID of the wire frame whose consequences the
	// event loop is currently applying; probe frames and result pushes issued
	// from inside the operation echo it. Event-loop owned.
	curTrace uint64
	// recentRec holds the timestamps of recent resume hellos for
	// reconnect-storm detection. Event-loop owned.
	recentRec []time.Time

	closeOnce sync.Once
	wg        sync.WaitGroup
	start     time.Time
	timeBase  float64 // monitor clock at recovery, so time never runs backward
	recSeq    uint64  // journal sequence recovery stopped at; SetPersist continues it

	// Startup-recovery outcome, written once in Recover (before Serve) and
	// read by the observability gauges.
	replaySeconds float64
	replayEntries int
	logf          func(format string, args ...interface{})
}

// request is one event-loop operation: either an arbitrary closure or a
// location update carried as data, so the loop can coalesce a burst of queued
// updates into a single pipeline batch.
type request struct {
	fn func()      // non-update operation; nil for updates
	c  *clientConn // update: the reporting connection
	p  geom.Point  // update: the reported location
	tr uint64      // update: causal trace ID carried by the wire frame
}

type clientConn struct {
	obj     uint64
	codec   *wire.Codec
	conn    net.Conn
	lastPos geom.Point
	seq     uint64
	replies chan wire.Message

	// needRegion marks a session whose last safe-region push failed (or that
	// just resumed): the current region must be re-sent before the client can
	// be trusted to suppress updates again. Event-loop owned.
	needRegion bool
	// bye records a clean TBye departure, which releases the object
	// immediately instead of holding its session lease.
	bye bool
}

type appConn struct {
	codec *wire.Codec
	conn  net.Conn
	mu    sync.Mutex // application frames are written from the event loop and registration acks
}

func (a *appConn) send(m wire.Message) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.codec.Send(m)
}

// NewServer creates a server with the given monitor options, listening on
// addr (e.g. "127.0.0.1:0"). Serve must be called to start accepting.
func NewServer(addr string, opt core.Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opt:     opt,
		ln:      ln,
		reqs:    make(chan request, 4096),
		done:    make(chan struct{}),
		clients: make(map[uint64]*clientConn),
		watch:   make(map[query.ID]*appConn),
		leases:  make(map[uint64]*time.Timer),
		start:   time.Now(),
		logf:    log.Printf,
	}
	s.mon = core.New(opt, core.ProberFunc(s.probe), s.onResults)
	return s, nil
}

// SetLogf replaces the server's logger (useful to silence tests).
func (s *Server) SetLogf(f func(string, ...interface{})) {
	if f == nil {
		f = func(string, ...interface{}) {}
	}
	s.logf = f
}

// SetWorkers enables the batch update pipeline: bursts of queued location
// updates are coalesced into one batch whose conflict-free part is planned on
// n workers (n <= 0 keeps the pure sequential path). The batch outcome is
// bit-identical to sequential processing in ascending object-ID order — see
// internal/parallel. Must be called before Serve.
func (s *Server) SetWorkers(n int) {
	if n > 0 {
		s.pipe = parallel.New(s.mon, n)
		s.pipe.SetObs(s.sink())
	} else {
		s.pipe = nil
	}
}

// SetChaos wraps every accepted connection with the given fault injector
// (see internal/chaos). Injected faults are counted in the observability
// registry when a sink is attached. Must be called before Serve; nil
// disables.
func (s *Server) SetChaos(inj *chaos.Injector) {
	s.inj = inj
	if inj != nil && s.obs != nil {
		inj.OnFault(s.obs.noteFault)
	}
}

// SetFlightRecorder attaches the server's event ring: the server records
// every wire-causal event (updates, grants, probes, registrations, resumes)
// into it, and dumps trigger automatically on an event-loop SLO breach
// (SetSLO) or a reconnect storm. With an observability sink attached
// (SetObs), the monitor and the pipeline record their spans, instants and
// slow ops into the same ring. Must be called before Serve; nil detaches.
// The caller owns the recorder's lifecycle (Close, SIGQUIT dumps).
func (s *Server) SetFlightRecorder(fr *obs.FlightRecorder) {
	s.flight = fr
	if s.obs != nil {
		s.attachSink()
	}
}

// SetSLO sets the event-loop latency objective: a request (update batch or
// other operation) taking d or longer triggers a flight-recorder dump with
// reason "slo-breach" (rate-limited by the recorder). 0 disables. Must be
// called before Serve; effective only with a flight recorder attached.
func (s *Server) SetSLO(d time.Duration) { s.sloThresh = d }

// SetSlowOpLog configures the monitor's slow-op detection
// (core.Monitor.SetSlowOpLog): monitor operations taking threshold or longer
// record a slow_op event into the ring and append its NDJSON line to w.
// Requires an observability sink (operation timing exists only then). Must be
// called before Serve.
func (s *Server) SetSlowOpLog(threshold time.Duration, w io.Writer) {
	s.mon.SetSlowOpLog(threshold, w)
}

// setTrace installs tr as the causal trace of the operation about to run:
// the monitor tags its spans, instants, and slow-op events with it, and the
// server echoes it on probe frames and result pushes issued from inside the
// operation. Runs on the event loop.
func (s *Server) setTrace(tr uint64) {
	s.curTrace = tr
	s.mon.SetOpTrace(tr)
}

// SetProbeTimeout overrides how long a server-initiated probe waits for the
// client's reply before falling back to the last reported location (default
// 2s). Probes run on the event loop, so on a lossy link a shorter timeout
// bounds how long one unanswered probe can stall all other sessions. Must be
// called before Serve.
func (s *Server) SetProbeTimeout(d time.Duration) { s.probeTO = d }

// SetLease makes a disconnected mobile-client session survive for d: the
// object stays in the monitor so a client that reconnects with Resume gets
// its state back (and a fresh safe-region push) instead of being re-added
// from scratch. d = 0 restores the historical behavior of removing the
// object the moment its connection drops. Must be called before Serve.
func (s *Server) SetLease(d time.Duration) { s.lease = d }

// Addr returns the bound listener address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Serve runs the accept and event loops until Close. It always returns a
// non-nil error (net.ErrClosed after a clean shutdown).
func (s *Server) Serve() error {
	s.wg.Add(1)
	// The event loop's only data-bounded loop is settleProbes' worklist drain
	// (processed grows monotonically over a finite ID set), which goroleak's
	// gate classifier cannot prove terminating; the loop itself exits on
	// <-s.done.
	go s.loop() //lint:allow goroleak settleProbes is a bounded worklist drain, not a shutdown hazard
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.closeOnce.Do(func() { close(s.done) })
			s.wg.Wait()
			return err
		}
		s.wg.Add(1)
		go s.handle(conn) //lint:allow goroleak reaches settleProbes via probe enqueue; same bounded worklist drain as the event loop
	}
}

// Close stops the server and terminates all connections.
func (s *Server) Close() error {
	err := s.ln.Close()
	s.closeOnce.Do(func() { close(s.done) })
	if s.persist != nil && s.persist.timer != nil {
		s.persist.timer.Stop()
	}
	return err
}

// loop serializes all monitor operations.
func (s *Server) loop() {
	defer s.wg.Done()
	for {
		select {
		case r := <-s.reqs:
			s.mon.SetTime(s.timeBase + time.Since(s.start).Seconds())
			s.dispatch(r)
		case <-s.done:
			return
		}
	}
}

// dispatch runs one request. A location update additionally drains — without
// blocking — the updates already queued behind it, so a burst of reports
// becomes one pipeline batch; draining stops at the first non-update request
// to preserve FIFO order with respect to registrations and disconnects.
func (s *Server) dispatch(r request) {
	timed := s.obs != nil || (s.flight != nil && s.sloThresh > 0)
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	if r.fn != nil {
		r.fn()
		s.noteOp(t0)
		s.checkSLO(t0, "op")
		return
	}
	conns := []*clientConn{r.c}
	pts := []geom.Point{r.p}
	trs := []uint64{r.tr}
	var after *request
drain:
	for {
		select {
		case nx := <-s.reqs:
			if nx.fn != nil {
				after = &nx
				break drain
			}
			conns = append(conns, nx.c)
			pts = append(pts, nx.p)
			trs = append(trs, nx.tr)
		default:
			break drain
		}
	}
	s.applyUpdates(conns, pts, trs)
	s.noteBatch(t0, len(conns))
	s.checkSLO(t0, "update-batch")
	if after != nil {
		var ta time.Time
		if timed {
			ta = time.Now()
		}
		after.fn()
		s.noteOp(ta)
		s.checkSLO(ta, "op")
	}
}

// checkSLO triggers a flight-recorder dump when an event-loop request blew the
// latency objective; the breach itself is recorded so the dump carries it.
func (s *Server) checkSLO(t0 time.Time, kind string) {
	if s.flight == nil || s.sloThresh <= 0 {
		return
	}
	if dur := time.Since(t0); dur >= s.sloThresh {
		s.flight.Record(obs.Event{
			TS: t0.UnixNano(), Kind: obs.FlightSlowOp, Dur: dur.Nanoseconds(), Note: "event-loop " + kind,
		})
		s.flight.TriggerDump("slo-breach")
	}
}

// applyUpdates processes a coalesced batch of location updates through the
// parallel pipeline when enabled (and worthwhile), else sequentially, and
// routes each update's safe-region refreshes back through dispatchRegions
// with the reporting object as primary.
func (s *Server) applyUpdates(conns []*clientConn, pts []geom.Point, trs []uint64) {
	// lastPos is only the probe-timeout fallback; every batched report has
	// been received by now, so expose all of them before the monitor runs
	// (and possibly probes) any update of the batch.
	for i, c := range conns {
		c.lastPos = pts[i]
		s.flight.Record(obs.Event{Kind: obs.FlightUpdate, Trace: trs[i], Obj: c.obj})
	}
	if s.pipe != nil && len(conns) > 1 {
		// One journal entry for the whole coalesced batch, in arrival order;
		// replay applies it in ascending-object-ID stable order, which the
		// pipeline determinism contract guarantees is the same outcome.
		if s.persist != nil {
			je := core.JournalEntry{Op: core.JournalBatch, Batch: make([]core.BatchedUpdate, len(conns))}
			for i, c := range conns {
				je.Batch[i] = core.BatchedUpdate{Obj: c.obj, X: pts[i].X, Y: pts[i].Y}
			}
			s.jBegin(je)
		}
		batch := make([]parallel.Update, len(conns))
		for i, c := range conns {
			batch[i] = parallel.Update{ID: c.obj, Loc: pts[i]}
		}
		// The serial apply phase installs each update's trace just before its
		// effects run, so probes, grants, and slow-op events inside carry the
		// causing frame's ID even though planning ran for the whole batch.
		s.pipe.ApplyEachCtx(batch,
			func(i int) { s.setTrace(trs[i]) },
			func(i int, ups []core.SafeRegionUpdate) {
				s.dispatchRegions(conns[i].obj, ups, trs[i])
			})
		s.setTrace(0)
		s.jCommit()
	} else {
		// Sequential path applies in arrival order, so journal one entry per
		// update to preserve that order on replay.
		for i, c := range conns {
			s.setTrace(trs[i])
			s.jBegin(core.JournalEntry{Op: core.JournalUpdate, Obj: c.obj, X: pts[i].X, Y: pts[i].Y})
			ups := s.mon.Update(c.obj, pts[i])
			s.jCommit()
			s.dispatchRegions(c.obj, ups, trs[i])
		}
		s.setTrace(0)
	}
	for i, c := range conns {
		if c.needRegion {
			s.pushRegion(c, trs[i])
		}
	}
}

// do schedules an operation on the event loop and waits for it.
func (s *Server) do(f func()) error {
	doneCh := make(chan struct{})
	select {
	case s.reqs <- request{fn: func() { f(); close(doneCh) }}:
	case <-s.done:
		return errors.New("remote: server closed")
	}
	select {
	case <-doneCh:
		return nil
	case <-s.done:
		return errors.New("remote: server closed")
	}
}

// probe implements the server-initiated probe: a round trip to the client's
// connection, falling back to the last reported location on timeout or after
// disconnect.
func (s *Server) probe(id uint64) geom.Point {
	p := s.probeLive(id)
	// Whatever answer the monitor consumes — live reply, fallback, or zero —
	// is what a journal replay must reproduce.
	if s.persist != nil {
		s.persist.journal.NoteProbe(id, p)
	}
	return p
}

func (s *Server) probeLive(id uint64) geom.Point {
	c := s.clients[id]
	if c == nil {
		// Disconnected but lease-alive object: its last reported location is
		// the best the server has.
		if p, ok := s.mon.LastReported(id); ok {
			return p
		}
		return geom.Point{}
	}
	c.seq++
	seq := c.seq
	s.flight.Record(obs.Event{Kind: obs.FlightProbe, Trace: s.curTrace, Obj: id})
	if err := c.codec.Send(wire.Message{Type: wire.TProbe, Seq: seq, Trace: s.curTrace}); err != nil {
		return c.lastPos
	}
	to := s.probeTO
	if to <= 0 {
		to = probeTimeout
	}
	timer := time.NewTimer(to)
	defer timer.Stop()
	for {
		select {
		case m := <-c.replies:
			if m.Seq == seq {
				c.lastPos = m.Point()
				return c.lastPos
			}
			// Stale reply to an earlier probe: keep draining.
		case <-timer.C:
			return c.lastPos
		case <-s.done:
			return c.lastPos
		}
	}
}

// onResults pushes a changed result to the application server watching the
// query. Runs on the event loop.
func (s *Server) onResults(u core.ResultUpdate) {
	if a := s.watch[u.Query]; a != nil {
		if err := a.send(wire.Message{Type: wire.TResults, QID: uint64(u.Query), IDs: u.Results, Count: u.Count, Trace: s.curTrace}); err != nil {
			s.logf("remote: push results to app: %v", err)
		}
	}
}

// handle demultiplexes a new connection by its first frame: a THello starts a
// mobile-client session, anything else an application session.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	if s.inj != nil {
		conn = s.inj.Wrap(conn)
	}
	codec := wire.NewCodec(conn)
	_ = conn.SetReadDeadline(time.Now().Add(helloTimeout))
	first, err := codec.Recv()
	if err != nil {
		_ = conn.Close()
		return
	}
	// The session established, reads are unbounded again: both session kinds
	// block on their peer indefinitely and are torn down via Close.
	_ = conn.SetReadDeadline(time.Time{})
	if first.Type == wire.THello {
		s.serveClient(conn, codec, first)
		return
	}
	if first.Type == wire.TUpdate {
		// A mobile client whose (resume) hello was lost in transit: its first
		// surviving frame is a location report. Reconstruct the hello from it —
		// updates carry the object ID and position — so the session attaches
		// instead of being misrouted as an application connection.
		hello := wire.Message{Type: wire.THello, Obj: first.Obj, Resume: true, Trace: first.Trace}
		hello.SetPoint(first.Point())
		s.serveClient(conn, codec, hello)
		return
	}
	s.serveApp(conn, codec, first)
}

func (s *Server) serveClient(conn net.Conn, codec *wire.Codec, hello wire.Message) {
	defer conn.Close()
	c := &clientConn{
		obj:     hello.Obj,
		codec:   codec,
		conn:    conn,
		lastPos: hello.Point(),
		replies: make(chan wire.Message, 4),
	}
	// The client reader must never wait for the event loop: the loop may be
	// blocked probing this very connection, and the probe reply has to keep
	// flowing. Updates are therefore fire-and-forget enqueues; FIFO order per
	// connection is preserved by the request channel.
	enqueue := func(r request) error {
		select {
		case s.reqs <- r:
			return nil
		case <-s.done:
			return errors.New("remote: server closed")
		}
	}
	if err := enqueue(request{fn: func() { s.attachClient(c, hello) }}); err != nil {
		return
	}
	defer func() {
		_ = enqueue(request{fn: func() { s.detachClient(c) }})
	}()
	for {
		// Per-client session loop: lives until the peer leaves or the server
		// closes the conn; an idle (in-region) client is legitimate.
		m, err := codec.Recv() //lint:allow ctxdeadline long-lived session, bounded by conn close
		if err != nil {
			return
		}
		switch m.Type { //lint:allow protodrift THello is consumed by the accept handshake before this session loop starts
		case wire.TUpdate:
			if err := enqueue(request{c: c, p: m.Point(), tr: m.Trace}); err != nil {
				return
			}
		case wire.TProbeReply:
			// Keep the freshest reply: the prober matches by sequence number
			// and drains stale ones, so on a full buffer evict the oldest
			// rather than dropping the reply it is actually waiting for.
			for delivered := false; !delivered; {
				select {
				case c.replies <- m:
					delivered = true
				default:
					select {
					case <-c.replies:
					default:
					}
				}
			}
		case wire.TBye:
			c.bye = true // published to the event loop by the detach enqueue
			return
		default:
			s.logf("remote: client %d sent unexpected %q", c.obj, m.Type)
		}
	}
}

// attachClient installs a new or resumed mobile-client session. Runs on the
// event loop.
func (s *Server) attachClient(c *clientConn, hello wire.Message) {
	if old := s.clients[c.obj]; old != nil && old != c {
		// Session takeover: the client reconnected before the old conn's read
		// loop noticed the loss. Tear the stale conn down; its detach is a
		// no-op because the map no longer points at it.
		_ = old.conn.Close()
	}
	if t := s.leases[c.obj]; t != nil {
		t.Stop()
		delete(s.leases, c.obj)
	}
	s.clients[c.obj] = c
	s.noteClients()
	p := hello.Point()
	c.lastPos = p
	_, known := s.mon.SafeRegion(c.obj)
	if hello.Resume && known {
		// The lease kept the object alive: fold the announced position in as
		// an ordinary update, then re-push the current region so the client
		// never monitors with a stale one.
		s.noteReconnect(true)
		s.noteReconnectFlight(c.obj, hello.Trace, "resumed")
		s.setTrace(hello.Trace)
		s.jBegin(core.JournalEntry{Op: core.JournalUpdate, Obj: c.obj, X: p.X, Y: p.Y})
		ups := s.mon.Update(c.obj, p)
		s.jCommit()
		s.dispatchRegions(c.obj, ups, hello.Trace)
		s.pushRegion(c, hello.Trace)
		s.setTrace(0)
		return
	}
	if hello.Resume {
		s.noteReconnect(false) // lease expired while away; re-add from scratch
		s.noteReconnectFlight(c.obj, hello.Trace, "rejoined")
	}
	s.setTrace(hello.Trace)
	s.jBegin(core.JournalEntry{Op: core.JournalAdd, Obj: c.obj, X: p.X, Y: p.Y})
	ups := s.mon.AddObject(c.obj, p)
	s.jCommit()
	s.dispatchRegions(c.obj, ups, hello.Trace)
	s.setTrace(0)
}

// noteReconnectFlight records a resume hello in the flight recorder and runs
// reconnect-storm detection: enough resumes inside the window dump the ring,
// preserving the evidence of whatever severed the sessions. Runs on the event
// loop.
func (s *Server) noteReconnectFlight(obj, tr uint64, outcome string) {
	if s.flight == nil {
		return
	}
	s.flight.Record(obs.Event{Kind: obs.FlightReconnect, Trace: tr, Obj: obj, Note: outcome})
	now := time.Now() //lint:allow wallclock reconnect-storm detection is wall-clock by design
	keep := s.recentRec[:0]
	for _, t := range s.recentRec {
		if now.Sub(t) < reconnectStormWindow {
			keep = append(keep, t)
		}
	}
	s.recentRec = append(keep, now)
	if len(s.recentRec) >= reconnectStormCount {
		s.flight.TriggerDump("reconnect-storm")
	}
}

// detachClient handles a session ending. With a lease configured the object
// outlives the connection; otherwise (or on a clean TBye) it is removed
// immediately. Runs on the event loop.
func (s *Server) detachClient(c *clientConn) {
	if s.clients[c.obj] != c {
		return // superseded by a resumed session; nothing to release
	}
	delete(s.clients, c.obj)
	s.noteClients()
	if s.lease > 0 && !c.bye {
		s.startLease(c.obj)
		return
	}
	s.removeObject(c.obj)
}

// removeObject journals and applies an object removal. Runs on the event
// loop.
func (s *Server) removeObject(id uint64) {
	s.jBegin(core.JournalEntry{Op: core.JournalRemove, Obj: id})
	s.mon.RemoveObject(id)
	s.jCommit()
}

// startLease arms the removal countdown for a disconnected object. Runs on
// the event loop.
func (s *Server) startLease(id uint64) {
	if t := s.leases[id]; t != nil {
		t.Stop()
	}
	s.leases[id] = time.AfterFunc(s.lease, func() {
		select {
		case s.reqs <- request{fn: func() { s.expireLease(id) }}:
		case <-s.done:
		}
	})
}

// expireLease removes an object whose lease ran out without a resume. Runs
// on the event loop.
func (s *Server) expireLease(id uint64) {
	delete(s.leases, id)
	if _, live := s.clients[id]; live {
		return // resumed between timer fire and event-loop turn
	}
	s.noteLeaseExpiry()
	s.removeObject(id)
}

// pushRegion sends the object's current safe region to its session,
// clearing the re-push mark on success. Runs on the event loop.
func (s *Server) pushRegion(c *clientConn, tr uint64) {
	r, ok := s.mon.SafeRegion(c.obj)
	if !ok {
		return
	}
	m := wire.Message{Type: wire.TRegion, Obj: c.obj, Trace: tr}
	m.SetRect(r)
	if err := c.codec.Send(m); err != nil {
		c.needRegion = true
		return
	}
	c.needRegion = false
	s.flight.Record(obs.Event{Kind: obs.FlightGrant, Trace: tr, Obj: c.obj, Note: "repush"})
	s.noteRepush()
}

// ResyncRegions re-pushes the current safe region to every connected
// session. A region push lost in transit is invisible to the server (the
// write succeeds locally), so after a period of degraded connectivity this
// sweep re-establishes the safe-region contract in one round trip per
// client: a client that receives a region it has already left reports
// immediately.
func (s *Server) ResyncRegions() error {
	return s.do(func() {
		// Push in ascending object-ID order: s.clients is a map, and region
		// frames interleave with result pushes on the shared codecs, so map
		// order would leak into the wire stream.
		ids := make([]uint64, 0, len(s.clients))
		for id := range s.clients {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			s.pushRegion(s.clients[id], 0)
		}
	})
}

// dispatchRegions delivers refreshed safe regions to their clients. Runs on
// the event loop.
func (s *Server) dispatchRegions(primary uint64, ups []core.SafeRegionUpdate, tr uint64) {
	for _, u := range ups {
		c := s.clients[u.Object]
		if c == nil {
			continue
		}
		var m wire.Message
		m.Type = wire.TRegion
		m.Obj = u.Object
		m.SetRect(u.Region)
		m.Trace = tr
		if err := c.codec.Send(m); err != nil {
			// The session must not be left monitoring with a stale region:
			// mark it so the current region is re-sent at the next chance
			// (next update from it, or its resume after a reconnect).
			c.needRegion = true
			s.noteRegionSendFail()
			if u.Object == primary {
				s.logf("remote: send region to %d: %v", u.Object, err)
			}
			continue
		}
		c.needRegion = false
		s.flight.Record(obs.Event{Kind: obs.FlightGrant, Trace: tr, Obj: u.Object})
	}
}

func (s *Server) serveApp(conn net.Conn, codec *wire.Codec, first wire.Message) {
	defer conn.Close()
	a := &appConn{codec: codec, conn: conn}
	var owned []query.ID
	defer func() {
		_ = s.do(func() {
			for _, qid := range owned {
				if s.watch[qid] != a {
					// A reconnected app server re-registered this query on a
					// newer session; it is no longer ours to tear down.
					continue
				}
				s.jBegin(core.JournalEntry{Op: core.JournalDeregister, QID: uint64(qid)})
				s.mon.Deregister(qid)
				s.jCommit()
				delete(s.watch, qid)
			}
		})
	}()
	m := first
	for {
		switch m.Type {
		case wire.TRegisterRange, wire.TRegisterKNN, wire.TRegisterCount, wire.TRegisterCircle:
			qid := query.ID(m.QID)
			req := m
			var results []uint64
			var count int
			var regErr error
			err := s.do(func() {
				// Registration is idempotent at the wire layer: a duplicate ID
				// (a retried frame whose reply was lost, or an app server
				// re-registering after a reconnect) replaces the existing
				// query instead of erroring. The replacement is journaled as
				// deregister+register so replay stays exact.
				if _, ok := s.mon.Query(qid); ok {
					s.jBegin(core.JournalEntry{Op: core.JournalDeregister, QID: uint64(qid)})
					s.mon.Deregister(qid)
					s.jCommit()
					delete(s.watch, qid)
				}
				var ups []core.SafeRegionUpdate
				s.setTrace(req.Trace)
				s.flight.Record(obs.Event{Kind: obs.FlightRegister, Trace: req.Trace, Query: req.QID, Note: req.Type})
				s.jBegin(registrationEntry(req))
				switch req.Type { //lint:allow protodrift TDeregister is routed by the enclosing frame switch before this point
				case wire.TRegisterRange:
					results, ups, regErr = s.mon.RegisterRange(qid, req.Rect())
					count = len(results)
				case wire.TRegisterCount:
					count, ups, regErr = s.mon.RegisterCount(qid, req.Rect())
				case wire.TRegisterCircle:
					results, ups, regErr = s.mon.RegisterWithinDistance(qid, req.Point(), req.Radius)
					count = len(results)
				case wire.TRegisterKNN:
					results, ups, regErr = s.mon.RegisterKNN(qid, req.Point(), req.K, req.Ordered)
					count = len(results)
				}
				if regErr == nil {
					s.jCommit()
					s.watch[qid] = a
					owned = append(owned, qid)
					s.dispatchRegions(0, ups, req.Trace)
				} else {
					s.jAbort() // rejected registration left the monitor untouched
				}
				s.setTrace(0)
			})
			if err != nil {
				return
			}
			reply := wire.Message{Type: wire.TResults, QID: m.QID, IDs: results, Count: count, Trace: m.Trace}
			if regErr != nil {
				reply = wire.Message{Type: wire.TError, QID: m.QID, Err: regErr.Error(), Trace: m.Trace}
			}
			if err := a.send(reply); err != nil {
				return
			}
		case wire.TDeregister:
			qid := query.ID(m.QID)
			tr := m.Trace
			if err := s.do(func() {
				s.setTrace(tr)
				s.flight.Record(obs.Event{Kind: obs.FlightRegister, Trace: tr, Query: uint64(qid), Note: wire.TDeregister})
				s.jBegin(core.JournalEntry{Op: core.JournalDeregister, QID: uint64(qid)})
				s.mon.Deregister(qid)
				s.jCommit()
				delete(s.watch, qid)
				s.setTrace(0)
			}); err != nil {
				return
			}
		default:
			_ = a.send(wire.Message{Type: wire.TError, Err: fmt.Sprintf("unexpected %q", m.Type)})
		}
		var err error
		// App sessions register queries then sit idle listening for pushes;
		// the read is unbounded by design and ends when the conn closes.
		m, err = codec.Recv() //lint:allow ctxdeadline long-lived session, bounded by conn close
		if err != nil {
			return
		}
	}
}
