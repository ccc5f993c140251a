// Package load is the open-loop production load harness: it drives a real
// srb-server over the wire with K concurrent mobile sessions following the
// random-waypoint model (internal/mobility) and a mix of registered
// continuous queries, ramps the session count in stages until the server
// misses the declared latency SLO, and emits a machine-readable capacity
// report (LOAD_*.json) with p50/p99/p999 update-ack and probe round-trip
// latency, the maximum sustained sessions-per-core at the SLO, and — when a
// ServerControl is supplied — a recovery-time objective measured by killing
// the server mid-run and timing journal recovery plus lease resume back to
// the SLO.
//
// The generator is open loop: every session ticks on a wall-clock schedule
// and hands update frames to the transport without waiting for the previous
// ack, so offered load does not shrink when the server queues (the classic
// closed-loop coordination blindspot). Two latency families are measured on
// the client side, where the server cannot flatter itself:
//
//   - update-ack: the time from handing a location-update frame to the
//     transport until the next safe-region grant on that session. The server
//     pushes a fresh region after processing an update that moved the safe
//     region, so the grant is the protocol-level acknowledgement. Grants
//     match the newest pending update (a grant supersedes the older in-flight
//     updates it coalesced over), and unsolicited grants while no update is
//     pending are ignored.
//   - probe RTT: a synchronous COUNT-query register/deregister round trip
//     through the full event loop, issued at a fixed rate as an active probe
//     of server responsiveness even when every session sits happily inside
//     its safe region.
//
// All workload randomness — trajectories, start positions, query placement —
// derives from Config.Seed and the session/query index alone, so two runs of
// the same configuration offer bit-identical workloads and reports differ
// only by measured timing.
package load

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"srb/internal/core"
	"srb/internal/geom"
	"srb/internal/obs"
	"srb/internal/query"
	"srb/internal/remote"
)

// ServerControl lets the harness crash and resurrect the server under test
// for the recovery drill. The process-based implementation lives in
// cmd/srb-load (SIGKILL + re-exec with -recover); tests use an in-process
// one over remote.Server.
type ServerControl interface {
	// Kill terminates the server abruptly — no goodbyes, no final snapshot.
	Kill() error
	// Restart brings the server back on the same address, recovering from
	// its persist directory, and returns once it is accepting connections
	// (journal replay may still be ahead of the event loop going live).
	Restart() error
}

// RecoveryConfig enables the mid-run SIGKILL drill.
type RecoveryConfig struct {
	// Control kills and restarts the server under test.
	Control ServerControl
	// Timeout bounds the whole drill; exceeding it fails the run (an
	// unmeasurable RTO is a finding, not a report). Default 30s.
	Timeout time.Duration
}

// Config parameterizes a harness run. The zero value is not runnable; Addr
// and Sessions are required, everything else has production-shaped defaults.
type Config struct {
	// Addr is the srb-server wire address to drive.
	Addr string
	// Seed derives every per-session and per-query RNG stream.
	Seed int64
	// Space is the coordinate universe; defaults to the unit square.
	Space geom.Rect
	// Sessions is the stage-1 mobile-session count.
	Sessions int
	// StageMultipliers scales Sessions per ramp stage and must be strictly
	// increasing. Default {1, 2, 4}.
	StageMultipliers []int
	// StageDuration is how long each ramp stage holds its session count.
	// Default 10s.
	StageDuration time.Duration
	// TickEvery is the per-session movement tick interval. Default 20ms.
	TickEvery time.Duration
	// ReportEvery, when > 0, forces each session to send a location update at
	// least this often even while inside its safe region, flooring the
	// offered update rate independent of safe-region geometry.
	ReportEvery time.Duration
	// ProbeEvery is the probe round-trip sampling interval. Default 250ms.
	ProbeEvery time.Duration
	// MeanSpeed and MeanPeriod parameterize the random-waypoint model, in
	// space units per simulated time unit. Defaults 0.2 and 0.1.
	MeanSpeed, MeanPeriod float64
	// Timescale maps wall seconds to simulated time units. Default 2.5
	// (matching srb-client's 0.05 units per 20ms tick).
	Timescale float64
	// RangeQueries, CircleQueries, KNNQueries and CountQueries set the
	// registered continuous-query mix. Defaults 4, 2, 2, 1.
	RangeQueries, CircleQueries, KNNQueries, CountQueries int
	// SLOP99 is the latency objective: a stage is sustained when both p99
	// update-ack and p99 probe RTT stay at or under it. Default 50ms.
	SLOP99 time.Duration
	// Recovery, when non-nil, runs the SIGKILL drill after the ramp.
	Recovery *RecoveryConfig
	// Registry, when non-nil, receives the client-side metric families
	// (NewMetrics) for scraping alongside the report.
	Registry *obs.Registry
	// AdminURL, when non-empty, is the server's admin endpoint base URL
	// (http://host:port). The harness scrapes it into the report's server
	// and flight blocks at the end of the ramp, and into its recovered block
	// after a drill; a failed get or a malformed body fails the run.
	AdminURL string
	// Logf receives progress lines; nil silences the harness.
	Logf func(format string, args ...interface{})
}

// withDefaults fills unset fields and validates the ramp shape.
func (c Config) withDefaults() (Config, error) {
	if c.Addr == "" {
		return c, fmt.Errorf("load: Addr is required")
	}
	if c.Sessions <= 0 {
		return c, fmt.Errorf("load: Sessions must be positive")
	}
	if !c.Space.IsValid() || c.Space.Area() == 0 {
		c.Space = geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	}
	if len(c.StageMultipliers) == 0 {
		c.StageMultipliers = []int{1, 2, 4}
	}
	for i, m := range c.StageMultipliers {
		if m <= 0 || (i > 0 && m <= c.StageMultipliers[i-1]) {
			return c, fmt.Errorf("load: StageMultipliers must be strictly increasing and positive, got %v", c.StageMultipliers)
		}
	}
	if c.StageDuration <= 0 {
		c.StageDuration = 10 * time.Second
	}
	if c.TickEvery <= 0 {
		c.TickEvery = 20 * time.Millisecond
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 250 * time.Millisecond
	}
	if c.MeanSpeed <= 0 {
		c.MeanSpeed = 0.2
	}
	if c.MeanPeriod <= 0 {
		c.MeanPeriod = 0.1
	}
	if c.Timescale <= 0 {
		c.Timescale = 2.5
	}
	if c.RangeQueries == 0 && c.CircleQueries == 0 && c.KNNQueries == 0 && c.CountQueries == 0 {
		c.RangeQueries, c.CircleQueries, c.KNNQueries, c.CountQueries = 4, 2, 2, 1
	}
	if c.SLOP99 <= 0 {
		c.SLOP99 = 50 * time.Millisecond
	}
	if c.Recovery != nil && c.Recovery.Timeout <= 0 {
		c.Recovery.Timeout = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	return c, nil
}

// sessionSeed derives the deterministic RNG seed for one workload stream
// (sessions and queries share the derivation with disjoint ID ranges) using
// a splitmix64 finalizer, so neighboring IDs get uncorrelated streams.
func sessionSeed(seed int64, id uint64) int64 {
	z := uint64(seed) + id*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// querySpec is one deterministic continuous query of the workload mix.
type querySpec struct {
	id     query.ID
	kind   string // a core.Kind* query kind
	rect   geom.Rect
	center geom.Point
	radius float64
	k      int
}

// queryIDBase keeps workload query IDs clear of the prober's transient IDs.
const queryIDBase = 1_000_000

// workloadQueries derives the deterministic query mix for a config. Exported
// determinism is by construction: only Seed and the counts shape the result.
func workloadQueries(cfg Config) []querySpec {
	var specs []querySpec
	sp := cfg.Space
	w, h := sp.Width(), sp.Height()
	for _, mix := range []struct {
		kind string
		n    int
	}{
		{core.KindRange, cfg.RangeQueries}, {core.KindCircle, cfg.CircleQueries},
		{core.KindKNN, cfg.KNNQueries}, {core.KindCount, cfg.CountQueries},
	} {
		for i := 0; i < mix.n; i++ {
			qi := uint64(len(specs) + 1)
			rng := rand.New(rand.NewSource(sessionSeed(cfg.Seed, 1<<40+qi)))
			q := querySpec{id: query.ID(queryIDBase + qi), kind: mix.kind}
			switch mix.kind {
			case core.KindRange, core.KindCount:
				x := sp.MinX + rng.Float64()*w*0.9
				y := sp.MinY + rng.Float64()*h*0.9
				q.rect = geom.R(x, y, x+0.1*w, y+0.1*h)
			case core.KindCircle:
				q.center = geom.Pt(sp.MinX+rng.Float64()*w, sp.MinY+rng.Float64()*h)
				q.radius = 0.05 * w
			case core.KindKNN:
				q.center = geom.Pt(sp.MinX+rng.Float64()*w, sp.MinY+rng.Float64()*h)
				q.k = 1 + rng.Intn(4)
			}
			specs = append(specs, q)
		}
	}
	return specs
}

// stageAcc accumulates one ramp stage's observations. Sessions and the
// prober publish into the harness's current stageAcc through an atomic
// pointer, so stage switches never block the hot path.
type stageAcc struct {
	ack     *obs.Histogram
	probe   *obs.Histogram
	updates atomic.Int64
	acks    atomic.Int64
	errors  atomic.Int64

	// The worst (maximum-latency) ack and the causal trace ID of the update
	// it acknowledged, for post-mortem lookup in the server's flight
	// recorder. Mutex-guarded: the worst-ack update is off the common path
	// (most acks lose the comparison after one read under the lock).
	mu         sync.Mutex
	worstLat   float64
	worstTrace uint64
}

// noteWorst keeps the maximum observed ack latency and its trace.
func (a *stageAcc) noteWorst(lat float64, tr uint64) {
	a.mu.Lock()
	if lat > a.worstLat {
		a.worstLat, a.worstTrace = lat, tr
	}
	a.mu.Unlock()
}

// worst returns the stage's maximum ack latency and its trace.
func (a *stageAcc) worst() (float64, uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.worstLat, a.worstTrace
}

func newStageAcc() *stageAcc {
	return &stageAcc{
		ack:   obs.NewHistogram(obs.LatencyBuckets()),
		probe: obs.NewHistogram(obs.LatencyBuckets()),
	}
}

// harness is one Run's shared state.
type harness struct {
	cfg      Config
	m        *Metrics
	epoch    time.Time
	cur      atomic.Pointer[stageAcc]
	watch    ackWatch
	sessions []*session
	wg       sync.WaitGroup
	done     chan struct{}
}

// ackWatch arms the recovery drill's "back to SLO" detector: the first update
// ack at or under the SLO observed while armed signals the channel.
type ackWatch struct {
	mu    sync.Mutex
	armed bool
	slo   float64
	ch    chan time.Time
}

// arm starts watching for an ack within slo seconds.
func (w *ackWatch) arm(slo float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.armed = true
	w.slo = slo
	w.ch = make(chan time.Time, 1)
}

// note feeds one observed ack latency; fires the watch once when armed. The
// send happens outside the lock: the channel is buffered and disarming under
// the lock guarantees at most one send per arming, so it never blocks.
func (w *ackWatch) note(lat float64, now time.Time) {
	w.mu.Lock()
	var ch chan time.Time
	if w.armed && lat <= w.slo {
		w.armed = false
		ch = w.ch
	}
	w.mu.Unlock()
	if ch != nil {
		ch <- now
	}
}

// noteAck records one update-ack observation everywhere it is consumed:
// current stage (including the worst-ack trace tracker), registry metrics,
// and the recovery watch.
func (h *harness) noteAck(lat float64, now time.Time, trace uint64) {
	if acc := h.cur.Load(); acc != nil {
		acc.ack.Observe(lat)
		acc.acks.Add(1)
		acc.noteWorst(lat, trace)
	}
	h.m.UpdateAck.Observe(lat)
	h.m.Acks.Inc()
	h.watch.note(lat, now)
}

// noteUpdate records one update frame handed to the transport (or its write
// failure).
func (h *harness) noteUpdate(err error) {
	acc := h.cur.Load()
	if err != nil {
		if acc != nil {
			acc.errors.Add(1)
		}
		h.m.Errors.Inc()
		return
	}
	if acc != nil {
		acc.updates.Add(1)
	}
	h.m.UpdatesSent.Inc()
}

// noteProbe records one probe round trip outcome.
func (h *harness) noteProbe(lat float64, err error) {
	acc := h.cur.Load()
	if err != nil {
		if acc != nil {
			acc.errors.Add(1)
		}
		h.m.Errors.Inc()
		return
	}
	if acc != nil {
		acc.probe.Observe(lat)
	}
	h.m.ProbeRTT.Observe(lat)
}

// Run executes the configured ramp (and optional recovery drill) against the
// server at cfg.Addr and returns the capacity report. Run fails on workload
// bring-up errors and on a drill that cannot be measured within its timeout;
// a server that merely misses the SLO is a measurement, not an error.
func Run(cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	h := &harness{
		cfg:   cfg,
		m:     NewMetrics(cfg.Registry),
		epoch: time.Now(),
		done:  make(chan struct{}),
	}
	defer h.shutdown()

	// The query mix registers once, up front, through a reconnecting app
	// handle so it survives the recovery drill.
	app, err := remote.DialAppOpts(cfg.Addr, remote.AppOptions{
		Reconnect: true, Seed: sessionSeed(cfg.Seed, 1<<41),
	})
	if err != nil {
		return nil, fmt.Errorf("load: dial app: %w", err)
	}
	app.SetLogf(nil)
	defer app.Close()
	h.wg.Add(1)
	go h.drainResults(app)
	if err := registerQueries(app, workloadQueries(cfg)); err != nil {
		return nil, err
	}

	report := &Report{
		Schema: ReportSchema,
		Cores:  runtime.NumCPU(),
		Config: ConfigEcho{
			Seed:             cfg.Seed,
			BaseSessions:     cfg.Sessions,
			StageMultipliers: cfg.StageMultipliers,
			StageSeconds:     cfg.StageDuration.Seconds(),
			TickSeconds:      cfg.TickEvery.Seconds(),
			ReportSeconds:    cfg.ReportEvery.Seconds(),
			ProbeSeconds:     cfg.ProbeEvery.Seconds(),
			MeanSpeed:        cfg.MeanSpeed,
			Timescale:        cfg.Timescale,
			RangeQueries:     cfg.RangeQueries,
			CircleQueries:    cfg.CircleQueries,
			KNNQueries:       cfg.KNNQueries,
			CountQueries:     cfg.CountQueries,
		},
	}

	prober := newProber(h, probeIDBase, 2*time.Second, 1<<44)
	h.wg.Add(1)
	go prober.loop()

	sloSec := cfg.SLOP99.Seconds()
	lastReconnects := int64(0)
	for i, mult := range cfg.StageMultipliers {
		want := cfg.Sessions * mult
		if err := h.growSessions(want); err != nil {
			return nil, err
		}
		acc := newStageAcc()
		h.cur.Store(acc)
		cfg.Logf("load: stage %d: %d sessions for %s", i+1, want, cfg.StageDuration)
		t0 := time.Now()
		h.sleep(cfg.StageDuration)
		dur := time.Since(t0).Seconds()

		recon := h.reconnects()
		worstLat, worstTr := acc.worst()
		st := StageReport{
			Sessions:        want,
			DurationSeconds: dur,
			OfferedUpdates:  acc.updates.Load(),
			AckedUpdates:    acc.acks.Load(),
			UpdateAck:       summarize(acc.ack),
			ProbeRTT:        summarize(acc.probe),
			WorstAckSeconds: worstLat,
			WorstAckTrace:   worstTr,
			Errors:          acc.errors.Load(),
			Reconnects:      recon - lastReconnects,
		}
		lastReconnects = recon
		if st.DurationSeconds > 0 {
			st.OfferedRate = float64(st.OfferedUpdates) / st.DurationSeconds
		}
		st.MetSLO = st.UpdateAck.Count > 0 && st.UpdateAck.P99 <= sloSec &&
			st.ProbeRTT.Count > 0 && st.ProbeRTT.P99 <= sloSec
		report.Stages = append(report.Stages, st)
		cfg.Logf("load: stage %d: offered %.0f up/s, ack p99 %.1fms, probe p99 %.1fms, slo=%v",
			i+1, st.OfferedRate, st.UpdateAck.P99*1e3, st.ProbeRTT.P99*1e3, st.MetSLO)
		if !st.MetSLO {
			// The ramp found the knee; later (heavier) stages cannot pass.
			report.Capacity.Saturated = true
			break
		}
	}
	report.Capacity.SLOP99Seconds = sloSec
	for _, st := range report.Stages {
		if st.MetSLO && st.Sessions > report.Capacity.MaxSessionsAtSLO {
			report.Capacity.MaxSessionsAtSLO = st.Sessions
		}
	}
	report.Capacity.SessionsPerCore = float64(report.Capacity.MaxSessionsAtSLO) / float64(report.Cores)

	// Gather the first server life's evidence before the drill: a recovery
	// restart would replace the server process, its counters and its ring.
	if cfg.AdminURL != "" {
		var events []obs.FlightEvent
		if report.Server, events, err = scrapeServer(cfg.AdminURL); err != nil {
			return nil, err
		}
		report.Flight = checkFlight(events, report.Stages)
		cfg.Logf("load: flight: trace %#x (stage %d): %d events %v, complete=%v",
			report.Flight.Trace, report.Flight.Stage+1, report.Flight.Events,
			report.Flight.Kinds, report.Flight.Complete)
	}

	if cfg.Recovery != nil {
		rec, err := h.recoveryDrill(cfg.Recovery)
		if err != nil {
			return nil, err
		}
		rec.Reconnects = h.reconnects() - lastReconnects
		report.Recovery = rec
		if cfg.AdminURL != "" {
			if report.Recovered, err = scrapeRecovered(cfg.AdminURL, report.Server.StatsBatch); err != nil {
				return nil, err
			}
			a := report.Recovered
			cfg.Logf("load: recovered server: %g entries replayed, %g reconnects, %g regions re-pushed, %d trace events, %d retired queries, %d traced reconnect events",
				a.Families["srb_server_replay_entries"], a.Families["srb_server_reconnects_total"],
				a.Families["srb_server_region_repush_total"], a.TraceEvents, a.RetiredQueries, a.ReconnectEvents)
		}
	}
	return report, nil
}

// drainResults consumes the app handle's result stream so pushes never back
// up; result contents are irrelevant to capacity measurement.
func (h *harness) drainResults(app *remote.AppClient) {
	defer h.wg.Done()
	for range app.Updates() {
	}
}

// registerQueries registers the deterministic workload mix.
func registerQueries(app *remote.AppClient, specs []querySpec) error {
	for _, q := range specs {
		var err error
		switch q.kind {
		case core.KindRange:
			_, err = app.RegisterRange(q.id, q.rect)
		case core.KindCount:
			_, err = app.RegisterCount(q.id, q.rect)
		case core.KindCircle:
			_, err = app.RegisterWithinDistance(q.id, q.center, q.radius)
		case core.KindKNN:
			_, err = app.RegisterKNN(q.id, q.center, q.k, true)
		}
		if err != nil {
			return fmt.Errorf("load: register %s query %d: %w", q.kind, q.id, err)
		}
	}
	return nil
}

// growSessions dials sessions until the live count reaches want.
func (h *harness) growSessions(want int) error {
	for len(h.sessions) < want {
		s, err := newSession(h, uint64(len(h.sessions)+1))
		if err != nil {
			return fmt.Errorf("load: dial session %d: %w", len(h.sessions)+1, err)
		}
		h.sessions = append(h.sessions, s)
		h.m.Sessions.Set(float64(len(h.sessions)))
	}
	return nil
}

// reconnects sums completed resumes across all sessions.
func (h *harness) reconnects() int64 {
	var n int64
	for _, s := range h.sessions {
		n += s.client.Reconnects()
	}
	h.m.Reconnects.Add(n - h.m.Reconnects.Value())
	return n
}

// sleep waits d or until the harness shuts down.
func (h *harness) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-h.done:
	}
}

// shutdown stops the tick and prober goroutines and closes every session.
func (h *harness) shutdown() {
	select {
	case <-h.done:
	default:
		close(h.done)
	}
	for _, s := range h.sessions {
		_ = s.client.Close()
	}
	h.wg.Wait()
	h.m.Sessions.Set(0)
}
