package remote

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"srb/internal/geom"
	"srb/internal/obs"
	"srb/internal/query"
	"srb/internal/wire"
)

// dialTimeout bounds the TCP connect of DialClient/DialApp; a black-holed
// address fails fast instead of hanging the caller.
const dialTimeout = 10 * time.Second

// ClientOptions tunes the mobile client's reconnect behavior. The zero value
// disables reconnecting (one connection, historical behavior).
type ClientOptions struct {
	// Reconnect re-dials with exponential backoff after a connection loss and
	// resumes the session (wire.THello with Resume set), instead of
	// surfacing the read error and going silent.
	Reconnect bool
	// BackoffMin and BackoffMax bound the exponential backoff delay.
	// Defaults: 50ms and 5s.
	BackoffMin, BackoffMax time.Duration
	// Jitter is the relative randomization of each delay (0.2 = ±20%).
	// Defaults to 0.2; negative disables.
	Jitter float64
	// Seed makes the jitter sequence deterministic for tests; 0 derives one
	// from the object ID.
	Seed int64
	// MaxAttempts caps consecutive failed dials before giving up; 0 retries
	// forever (until Close).
	MaxAttempts int
	// Hooks receives wire-visible session events for external latency
	// measurement (the load harness). Zero value disables all callbacks.
	Hooks ClientHooks
}

// ClientHooks carries optional callbacks the mobile-client runtime invokes at
// wire-visible moments, so an external harness (internal/load) can timestamp
// per-operation latency without the runtime itself touching the wall clock.
// Callbacks run on the goroutine that triggered the event — UpdateSent on the
// Tick/Report caller, RegionGranted and Probed on the session read goroutine —
// and must be fast and non-blocking; they are invoked outside the client's
// lock. Nil members are skipped.
type ClientHooks struct {
	// UpdateSent fires after a location-update frame was handed to the
	// transport; trace is the causal trace ID minted for the frame and err
	// the frame write error (nil on success).
	UpdateSent func(trace uint64, err error)
	// RegionGranted fires when a safe-region grant arrives from the server;
	// trace echoes the causal ID of the update (or registration) whose
	// processing produced the grant, 0 when untraced.
	RegionGranted func(trace uint64)
	// Probed fires after the session answered a server-initiated probe.
	Probed func()
}

// mintTrace derives a nonzero 64-bit causal trace ID from the sender identity
// and a per-sender sequence number (splitmix64 finalizer over their
// combination): deterministic per session, no coordination, vanishing
// collision odds across senders.
func mintTrace(id, seq uint64) uint64 {
	x := id*0x9e3779b97f4a7c15 + seq
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

func (o ClientOptions) withDefaults(id uint64) ClientOptions {
	if o.BackoffMin <= 0 {
		o.BackoffMin = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.Jitter == 0 {
		o.Jitter = 0.2
	}
	if o.Seed == 0 {
		o.Seed = int64(id)*2654435761 + 1
	}
	return o
}

// MobileClient is the moving-object runtime: it keeps the current safe
// region, reports the position to the server only when it leaves the region
// (the source-initiated update of the paper), and answers server-initiated
// probes with the current position.
type MobileClient struct {
	id   uint64
	addr string
	opts ClientOptions
	rng  *rand.Rand // jitter source, used only by the read/reconnect goroutine

	mu         sync.Mutex
	conn       net.Conn
	codec      *wire.Codec
	pos        geom.Point
	region     geom.Rect
	hasRgn     bool
	updates    int64
	probes     int64
	reconnects int64
	traceSeq   uint64 // per-session sequence feeding mintTrace
	closed     bool
	readErr    error
	readDone   chan struct{}
}

// DialClient connects a mobile client, announcing its initial position. The
// first safe region arrives asynchronously; until then every Tick reports.
func DialClient(addr string, id uint64, start geom.Point) (*MobileClient, error) {
	return DialClientOpts(addr, id, start, ClientOptions{})
}

// DialClientOpts is DialClient with reconnect options.
func DialClientOpts(addr string, id uint64, start geom.Point, opts ClientOptions) (*MobileClient, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults(id)
	c := &MobileClient{
		id:       id,
		addr:     addr,
		opts:     opts,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		conn:     conn,
		codec:    wire.NewCodec(conn),
		pos:      start,
		readDone: make(chan struct{}),
	}
	c.traceSeq++
	hello := wire.Message{Type: wire.THello, Obj: id, Trace: mintTrace(id, c.traceSeq)}
	hello.SetPoint(start)
	if err := c.send(hello); err != nil {
		_ = conn.Close()
		return nil, err
	}
	go c.readLoop()
	return c, nil
}

func (c *MobileClient) send(m wire.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("remote: client %d closed", c.id)
	}
	return c.codec.Send(m)
}

// readLoop handles probes and safe-region grants, reconnecting on
// connection loss when enabled.
func (c *MobileClient) readLoop() {
	defer close(c.readDone)
	for {
		// The receive loop lives as long as the connection; Close unblocks it
		// by tearing the conn down, so no read deadline is wanted here.
		// c.codec is only swapped by this goroutine (in reconnect), so the
		// unlocked read is safe.
		m, err := c.codec.Recv() //lint:allow ctxdeadline long-lived loop, bounded by Close
		if err != nil {
			if c.reconnect() {
				continue
			}
			c.mu.Lock()
			if c.readErr == nil {
				c.readErr = err
			}
			c.mu.Unlock()
			return
		}
		switch m.Type {
		case wire.TRegion:
			c.mu.Lock()
			c.region = m.Rect()
			c.hasRgn = true
			pos := c.pos
			outside := !c.region.Contains(pos)
			c.mu.Unlock()
			if f := c.opts.Hooks.RegionGranted; f != nil {
				f(m.Trace)
			}
			if outside {
				// Already escaped the granted region (delays): report now.
				c.report(pos)
			}
		case wire.TProbe:
			c.mu.Lock()
			pos := c.pos
			c.probes++
			c.mu.Unlock()
			reply := wire.Message{Type: wire.TProbeReply, Obj: c.id, Seq: m.Seq}
			reply.SetPoint(pos)
			if f := c.opts.Hooks.Probed; f != nil {
				f()
			}
			if err := c.send(reply); err != nil {
				// A failed write means the connection is gone just like a
				// failed read does; going silent here would leave a zombie
				// client that never reconnects.
				if c.reconnect() {
					continue
				}
				c.mu.Lock()
				if c.readErr == nil {
					c.readErr = err
				}
				c.mu.Unlock()
				return
			}
		}
	}
}

// reconnect re-dials the server with jittered exponential backoff and
// resumes the session. It reports false when reconnecting is disabled, the
// client is closed, or the attempt budget is exhausted. Runs on the read
// goroutine only.
func (c *MobileClient) reconnect() bool {
	if !c.opts.Reconnect {
		return false
	}
	delay := c.opts.BackoffMin
	for attempt := 0; c.opts.MaxAttempts <= 0 || attempt < c.opts.MaxAttempts; attempt++ {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return false
		}
		// Invalidate the region: the server will re-push a current one on
		// resume, and until then every Tick must report.
		c.hasRgn = false
		pos := c.pos
		c.traceSeq++
		tr := mintTrace(c.id, c.traceSeq)
		c.mu.Unlock()

		if attempt > 0 {
			d := delay
			if c.opts.Jitter > 0 {
				d += time.Duration(float64(delay) * c.opts.Jitter * (2*c.rng.Float64() - 1))
			}
			time.Sleep(d)
			if delay *= 2; delay > c.opts.BackoffMax {
				delay = c.opts.BackoffMax
			}
		}
		conn, err := net.DialTimeout("tcp", c.addr, dialTimeout)
		if err != nil {
			continue
		}
		codec := wire.NewCodec(conn)
		hello := wire.Message{Type: wire.THello, Obj: c.id, Resume: true, Trace: tr}
		hello.SetPoint(pos)
		if err := codec.Send(hello); err != nil {
			_ = conn.Close()
			continue
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			_ = conn.Close()
			return false
		}
		_ = c.conn.Close()
		c.conn, c.codec = conn, codec
		c.reconnects++
		c.mu.Unlock()
		return true
	}
	return false
}

func (c *MobileClient) report(p geom.Point) {
	c.mu.Lock()
	c.updates++
	c.traceSeq++
	tr := mintTrace(c.id, c.traceSeq)
	c.mu.Unlock()
	m := wire.Message{Type: wire.TUpdate, Obj: c.id, Trace: tr}
	m.SetPoint(p)
	if f := c.opts.Hooks.UpdateSent; f != nil {
		f(tr, c.send(m))
		return
	}
	_ = c.send(m)
}

// Report sends a location update unconditionally, whether or not p is inside
// the granted safe region. The protocol never requires this — Tick reports
// exactly on region exit — but the load harness uses it to hold a constant
// offered update rate (open loop) independent of safe-region geometry. The
// granted region stays valid: an in-region update does not change what the
// client must monitor.
func (c *MobileClient) Report(p geom.Point) {
	c.mu.Lock()
	c.pos = p
	c.mu.Unlock()
	c.report(p)
}

// Tick advances the client to position p, sending a location update exactly
// when p is outside the current safe region (or none has arrived yet).
func (c *MobileClient) Tick(p geom.Point) {
	c.mu.Lock()
	c.pos = p
	needsReport := !c.hasRgn || !c.region.Contains(p)
	if needsReport {
		// Invalidate the region until the server grants a fresh one, so
		// rapid ticks do not flood the uplink.
		c.hasRgn = false
	}
	c.mu.Unlock()
	if needsReport {
		c.report(p)
	}
}

// Region returns the current safe region and whether one has been granted.
func (c *MobileClient) Region() (geom.Rect, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.region, c.hasRgn
}

// Stats returns the number of updates sent and probes answered.
func (c *MobileClient) Stats() (updates, probes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.updates, c.probes
}

// Reconnects returns how many times the session was resumed over a fresh
// connection.
func (c *MobileClient) Reconnects() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}

// Close says goodbye and tears the connection down.
func (c *MobileClient) Close() error {
	_ = c.send(wire.Message{Type: wire.TBye, Obj: c.id})
	c.mu.Lock()
	c.closed = true
	conn := c.conn
	c.mu.Unlock()
	err := conn.Close()
	<-c.readDone
	return err
}

// AppOptions tunes the application-server handle's fault tolerance. The zero
// value disables reconnecting and round-trip timeouts (one connection, wait
// forever — historical behavior).
type AppOptions struct {
	// Reconnect re-dials with exponential backoff after a connection loss and
	// re-registers every query this handle holds, instead of closing the
	// Updates stream. Safe because registration is idempotent at the wire
	// layer (a duplicate ID replaces the query).
	Reconnect bool
	// BackoffMin and BackoffMax bound the exponential backoff delay.
	// Defaults: 50ms and 5s.
	BackoffMin, BackoffMax time.Duration
	// Jitter is the relative randomization of each delay (0.2 = ±20%).
	// Defaults to 0.2; negative disables.
	Jitter float64
	// Seed makes the jitter sequence deterministic for tests; 0 seeds from 1.
	Seed int64
	// MaxAttempts caps consecutive failed dials before giving up; 0 retries
	// forever (until Close).
	MaxAttempts int
	// RPCTimeout bounds each register round trip; on expiry the frame is
	// re-sent (registration being idempotent makes the retry safe, whether
	// the request or the reply was lost). 0 waits forever; defaults to 2s
	// when Reconnect is set.
	RPCTimeout time.Duration
	// RPCAttempts caps register retries when RPCTimeout is set. Defaults
	// to 4.
	RPCAttempts int
}

func (o AppOptions) withDefaults() AppOptions {
	if o.BackoffMin <= 0 {
		o.BackoffMin = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.Jitter == 0 {
		o.Jitter = 0.2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Reconnect && o.RPCTimeout == 0 {
		o.RPCTimeout = 2 * time.Second
	}
	if o.RPCAttempts <= 0 {
		o.RPCAttempts = 4
	}
	return o
}

// AppClient is an application-server handle: it registers continuous queries
// and receives the stream of result updates.
type AppClient struct {
	addr string
	opts AppOptions
	rng  *rand.Rand // jitter source, used only by the read/reconnect goroutine
	logf func(format string, args ...interface{})

	mu          sync.Mutex
	conn        net.Conn
	codec       *wire.Codec
	traceSeq    uint64 // per-handle sequence feeding mintTrace
	pending     map[uint64]chan wire.Message
	specs       map[uint64]wire.Message // registration frames, for re-register on reconnect
	updates     chan ResultUpdate
	closed      bool
	reconnects  int64
	dropped     int64        // result pushes discarded on backpressure
	lastDropLog time.Time    // throttles the drop warning
	obsDropped  *obs.Counter // nil-safe mirror of dropped
	readDone    chan struct{}
}

// dropLogEvery throttles the backpressure warning: losing result pushes is
// worth telling the operator about, but not once per dropped frame.
const dropLogEvery = 5 * time.Second

// ResultUpdate is a pushed result change for a registered query. Aggregate
// COUNT queries populate only Count.
type ResultUpdate struct {
	Query   query.ID
	Results []uint64
	Count   int
}

// DialApp connects an application server.
func DialApp(addr string) (*AppClient, error) {
	return DialAppOpts(addr, AppOptions{})
}

// DialAppOpts is DialApp with reconnect and round-trip retry options.
func DialAppOpts(addr string, opts AppOptions) (*AppClient, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	a := &AppClient{
		addr:     addr,
		opts:     opts,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		conn:     conn,
		codec:    wire.NewCodec(conn),
		logf:     log.Printf,
		pending:  make(map[uint64]chan wire.Message),
		specs:    make(map[uint64]wire.Message),
		updates:  make(chan ResultUpdate, 256),
		readDone: make(chan struct{}),
	}
	go a.readLoop()
	return a, nil
}

// SetObs mirrors the handle's dropped-push counter into an observability
// registry as srb_app_results_dropped_total. Nil detaches.
func (a *AppClient) SetObs(sink *obs.Sink) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if sink == nil || sink.Registry() == nil {
		a.obsDropped = nil
		return
	}
	a.obsDropped = sink.Registry().Counter("srb_app_results_dropped_total",
		"Result pushes dropped by the app client because its Updates channel was full.")
}

// SetLogf replaces the handle's logger (useful to silence tests).
func (a *AppClient) SetLogf(f func(string, ...interface{})) {
	if f == nil {
		f = func(string, ...interface{}) {}
	}
	a.logf = f
}

// Dropped returns how many result pushes were discarded because the Updates
// channel was full. A non-zero value means the consumer is too slow and has
// missed intermediate results (each query's next push supersedes them).
func (a *AppClient) Dropped() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dropped
}

// noteDrop accounts one discarded result push, warning at a throttled rate.
func (a *AppClient) noteDrop(qid uint64) {
	a.mu.Lock()
	a.dropped++
	n := a.dropped
	ctr := a.obsDropped
	warn := time.Since(a.lastDropLog) >= dropLogEvery
	if warn {
		a.lastDropLog = time.Now()
	}
	a.mu.Unlock()
	ctr.Inc() // nil-safe
	if warn {
		a.logf("remote: app client dropped result push for query %d on backpressure (%d dropped total)", qid, n)
	}
}

func (a *AppClient) readLoop() {
	defer close(a.readDone)
	defer close(a.updates)
	defer a.failPending()
	for {
		// Long-lived result stream; Close tears the conn down to unblock it.
		// a.codec is only swapped by this goroutine (in reconnect), so the
		// unlocked read is safe.
		m, err := a.codec.Recv() //lint:allow ctxdeadline long-lived loop, bounded by Close
		if err != nil {
			if a.reconnect() {
				continue
			}
			return
		}
		a.mu.Lock()
		ch := a.pending[m.QID]
		if ch != nil {
			delete(a.pending, m.QID)
		}
		a.mu.Unlock()
		if ch != nil {
			ch <- m
			continue
		}
		if m.Type == wire.TResults {
			select {
			case a.updates <- ResultUpdate{Query: query.ID(m.QID), Results: m.IDs, Count: m.Count}:
			default:
				// Drop on backpressure rather than stalling the stream — but
				// never invisibly: count it and warn at a throttled rate.
				a.noteDrop(m.QID)
			}
		} else if m.Type == wire.TError {
			// An error frame with no round-trip waiter (the waiter timed out,
			// or the server pushed it) must not vanish silently.
			a.logf("remote: unrouted server error for query %d: %s", m.QID, m.Err)
		}
	}
}

// Updates streams result changes for all queries registered on this handle.
// The channel closes when the connection drops — or, with Reconnect, when the
// dial budget is exhausted — and is closed by the time Close returns. After a
// reconnect the fresh registrations' initial results arrive on this channel
// too.
func (a *AppClient) Updates() <-chan ResultUpdate { return a.updates }

// reconnect re-dials the server with jittered exponential backoff and
// re-registers every query this handle holds (idempotent at the wire layer,
// so a query that survived server-side is simply replaced). It reports false
// when reconnecting is disabled, the handle is closed, or the attempt budget
// is exhausted. Runs on the read goroutine only.
func (a *AppClient) reconnect() bool {
	if !a.opts.Reconnect {
		return false
	}
	delay := a.opts.BackoffMin
	for attempt := 0; a.opts.MaxAttempts <= 0 || attempt < a.opts.MaxAttempts; attempt++ {
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			return false
		}
		a.mu.Unlock()

		if attempt > 0 {
			d := delay
			if a.opts.Jitter > 0 {
				d += time.Duration(float64(delay) * a.opts.Jitter * (2*a.rng.Float64() - 1))
			}
			time.Sleep(d)
			if delay *= 2; delay > a.opts.BackoffMax {
				delay = a.opts.BackoffMax
			}
		}
		conn, err := net.DialTimeout("tcp", a.addr, dialTimeout)
		if err != nil {
			continue
		}
		codec := wire.NewCodec(conn)
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			_ = conn.Close()
			return false
		}
		_ = a.conn.Close()
		a.conn, a.codec = conn, codec
		a.reconnects++
		// Re-register in ascending query order for a deterministic journal.
		specs := make([]wire.Message, 0, len(a.specs))
		for _, sm := range a.specs {
			specs = append(specs, sm)
		}
		a.mu.Unlock()
		sort.Slice(specs, func(i, j int) bool { return specs[i].QID < specs[j].QID })

		// Replies route to a pending round-trip waiter when one is in
		// flight, otherwise they surface as ordinary result pushes.
		ok := true
		for _, sm := range specs {
			if err := a.codecSend(sm); err != nil {
				ok = false // the fresh conn died already; back off and retry
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// roundTrip sends a request frame and waits for its reply. With RPCTimeout
// set it re-sends the frame when the reply does not arrive in time — safe
// whether the request or the reply was lost, because registration is
// idempotent at the wire layer.
func (a *AppClient) roundTrip(m wire.Message) (wire.Message, error) {
	attempts := 1
	if a.opts.RPCTimeout > 0 {
		attempts = a.opts.RPCAttempts
	}
	for i := 0; ; i++ {
		reply, err, again := a.roundTripOnce(m) //lint:allow errdrop a retried attempt's error is superseded by the final one
		if !again || i == attempts-1 {
			return reply, err
		}
	}
}

// roundTripOnce performs one send+wait attempt; again reports whether the
// failure is a timeout-class one worth retrying.
func (a *AppClient) roundTripOnce(m wire.Message) (wire.Message, error, bool) {
	ch := make(chan wire.Message, 1)
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return wire.Message{}, fmt.Errorf("remote: app client closed"), false
	}
	a.pending[m.QID] = ch
	sendErr := a.codec.Send(m)
	a.mu.Unlock()
	if sendErr != nil {
		a.clearPending(m.QID, ch)
		if !a.opts.Reconnect || a.opts.RPCTimeout <= 0 {
			return wire.Message{}, sendErr, false
		}
		// The conn is gone and the read loop is re-dialing; wait out one
		// timeout and retry on the fresh session.
		time.Sleep(a.opts.RPCTimeout)
		return wire.Message{}, sendErr, true
	}
	var timeout <-chan time.Time
	if a.opts.RPCTimeout > 0 {
		timer := time.NewTimer(a.opts.RPCTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case reply, ok := <-ch:
		if !ok {
			return wire.Message{}, fmt.Errorf("remote: connection closed"), false
		}
		if reply.Type == wire.TError {
			return wire.Message{}, fmt.Errorf("remote: %s", reply.Err), false
		}
		return reply, nil, false
	case <-timeout:
		a.clearPending(m.QID, ch)
		return wire.Message{}, fmt.Errorf("remote: round trip for query %d timed out", m.QID), true
	}
}

// clearPending removes the waiter for qid if it is still ours (a retry may
// have installed a fresh one).
func (a *AppClient) clearPending(qid uint64, ch chan wire.Message) {
	a.mu.Lock()
	if a.pending[qid] == ch {
		delete(a.pending, qid)
	}
	a.mu.Unlock()
}

// failPending closes every outstanding round-trip waiter; runs when the read
// loop exits for good so no caller is left blocked forever.
func (a *AppClient) failPending() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for qid, ch := range a.pending {
		// The read loop — the only sender on pending channels — has already
		// exited when this runs, so the receive-side close cannot race a send.
		close(ch) //lint:allow chanlife sole sender (the read loop) has exited before failPending runs
		delete(a.pending, qid)
	}
}

// request runs the round trip and, on success, records the registration
// frame so a reconnect can replay it. Each registration is one causal
// operation: the minted trace ID survives retries and reconnect replays, so
// the server-side fan-out of a re-sent frame still correlates.
func (a *AppClient) request(m wire.Message) (wire.Message, error) {
	m.Trace = a.mintAppTrace()
	reply, err := a.roundTrip(m)
	if err == nil {
		a.mu.Lock()
		a.specs[m.QID] = m
		a.mu.Unlock()
	}
	return reply, err
}

// RegisterRange registers a continuous range query and returns its initial
// result.
func (a *AppClient) RegisterRange(id query.ID, r geom.Rect) ([]uint64, error) {
	m := wire.Message{Type: wire.TRegisterRange, QID: uint64(id)}
	m.SetRect(r)
	reply, err := a.request(m)
	return reply.IDs, err
}

// RegisterCount registers an aggregate COUNT range query and returns the
// initial count.
func (a *AppClient) RegisterCount(id query.ID, r geom.Rect) (int, error) {
	m := wire.Message{Type: wire.TRegisterCount, QID: uint64(id)}
	m.SetRect(r)
	reply, err := a.request(m)
	return reply.Count, err
}

// RegisterWithinDistance registers a circular range query (objects within
// radius of center) and returns its initial result.
func (a *AppClient) RegisterWithinDistance(id query.ID, center geom.Point, radius float64) ([]uint64, error) {
	m := wire.Message{Type: wire.TRegisterCircle, QID: uint64(id), Radius: radius}
	m.SetPoint(center)
	reply, err := a.request(m)
	return reply.IDs, err
}

// RegisterKNN registers a continuous kNN query and returns its initial
// (distance-ordered) result.
func (a *AppClient) RegisterKNN(id query.ID, pt geom.Point, k int, ordered bool) ([]uint64, error) {
	m := wire.Message{Type: wire.TRegisterKNN, QID: uint64(id), K: k, Ordered: ordered}
	m.SetPoint(pt)
	reply, err := a.request(m)
	return reply.IDs, err
}

// mintAppTrace derives the next causal trace ID for a frame sent by this
// handle, keyed by the jitter seed so concurrent handles mint from different
// streams.
func (a *AppClient) mintAppTrace() uint64 {
	a.mu.Lock()
	a.traceSeq++
	tr := mintTrace(0xa99c1e27^uint64(a.opts.Seed), a.traceSeq)
	a.mu.Unlock()
	return tr
}

// Deregister removes a query.
func (a *AppClient) Deregister(id query.ID) error {
	a.mu.Lock()
	delete(a.specs, uint64(id))
	a.mu.Unlock()
	return a.codecSend(wire.Message{Type: wire.TDeregister, QID: uint64(id), Trace: a.mintAppTrace()})
}

// Reconnects returns how many times the handle re-dialed and re-registered
// its queries over a fresh connection.
func (a *AppClient) Reconnects() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reconnects
}

func (a *AppClient) codecSend(m wire.Message) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.codec.Send(m)
}

// Close tears down the connection and waits for the read loop to exit, so
// Updates is closed when it returns; the server deregisters this handle's
// queries.
func (a *AppClient) Close() error {
	a.mu.Lock()
	a.closed = true
	conn := a.conn
	a.mu.Unlock()
	err := conn.Close()
	<-a.readDone
	return err
}
