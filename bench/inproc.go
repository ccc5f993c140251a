package main

import (
	"fmt"
	"runtime"
)

// repResult is what one repetition measured. Counts are exact and repeat for
// a seed; times are this repetition's own.
type repResult struct {
	setupSec float64
	windows  []window
	allocs   uint64 // inside the windows
	heapMB   float64

	updates      int64 // source-initiated updates sent inside the windows
	sweepUpdates int64 // and outside them (exact mode, right before a comparison)
	probes       int64 // server-initiated probes answered
	clients      int64
	units        float64 // time units the timed phase covered

	pairs, pairsOK    int64 // oracle comparisons
	nearTies          int64 // of pairsOK: kNN answers equal to the oracle's only up to near-tied neighbours
	attempted, failed int64
	hash              uint64 // of every compared result and the final counters

	stepNs, stepObjects  int64 // mobility stepping, for harness.step_ns_per_object
	oracleNs, oracleRuns int64

	statsDelta MonitorStats  // monitor counters over the timed phase
	pipeDelta  PipelineStats // pipeline counters over the timed phase
	grants     int64         // safe regions handed back in the timed phase
}

// window is one timed block of calls into the program: a tick's reports, or a
// stretch of acks on the wire.
type window struct {
	wallNs, cpuNs  int64
	allocs         uint64
	updates        int64
	ackP50, ackP99 float64 // microseconds, over the window's own ack samples
}

// pools holds the per-operation samples of the window being measured; the
// buffers are allocated once per run, so timed windows never grow them.
type pools struct {
	ackNs  []int64   // this window's acks
	regNs  []int64   // this chunk's registrations
	regP50 []float64 // microseconds, one per finished chunk of regChunk registrations
	acks   int64     // ack samples taken in the whole run
}

// pipelineWorkers is the batch pipeline's plan-phase pool: the machine's two
// cores' worth of goroutines, so the pool's hand-off code runs, though on one
// P (see runWorkload) they take turns.
const pipelineWorkers = 2

// regChunk is how many registration samples make one register_p50_us value.
const regChunk = 100

// noteRegister adds one registration sample and closes the chunk when full.
func (p *pools) noteRegister(ns int64) {
	p.regNs = append(p.regNs, ns)
	if len(p.regNs) == regChunk {
		p.flushRegister()
	}
}

// flushRegister closes a chunk early (at the end of a repetition) if it holds
// enough samples for a median to mean something.
func (p *pools) flushRegister() {
	if len(p.regNs) >= 8 {
		p.regP50 = append(p.regP50, percentileNs(p.regNs, 0.50))
	}
	p.regNs = p.regNs[:0]
}

// world is one repetition's population, its clients' view of their safe
// regions, and the monitor they talk to: the paper's client protocol, driven
// tick by tick.
type world struct {
	p      params
	in     *inputs
	pos    []Point // true positions at the current tick (exact mode: at the last check)
	region []Rect  // safe region each client holds
	tick   int
	x      *exitState // exact mode: clients report at their exit instants

	mon     *Monitor
	pipe    *Pipeline
	oracle  *Oracle
	queries []QuerySpec // registered, oldest first
	nextQ   int         // next entry of in.queries to register

	probes    int64
	reporters []uint64
	batch     []BatchUpdate
	scratch   []uint64

	res      *repResult
	pool     *pools
	tr       *tracer // nil on untraced repetitions
	heapBase uint64  // live heap before the monitor was built: inputs, oracle, buffers
}

func newWorld(in *inputs, pool *pools, tr *tracer) *world {
	p := in.p
	w := &world{
		p:      p,
		in:     in,
		pos:    in.start,
		region: make([]Rect, p.n),
		oracle: newOracle(p.n),
		res:    &repResult{hash: fnvOffset, clients: int64(p.n)},
		pool:   pool,
		tr:     tr,
	}
	w.reporters = make([]uint64, 0, p.n)
	w.batch = make([]BatchUpdate, 0, p.batch)
	for i, pt := range in.start {
		w.oracle.Set(uint64(i), pt)
	}
	w.heapBase = heapAfterGC()
	if p.exact {
		w.x = newExitState(in.legs, float64(p.warmTicks+p.ticks+1), p.exitGap)
		w.pos = append([]Point(nil), in.start...)
	}
	w.mon = newMonitor(func(id uint64) Point {
		w.probes++
		return w.at(id)
	}, w.onResult)
	if p.batch > 0 {
		w.pipe = newPipeline(w.mon, pipelineWorkers)
	}
	if tr != nil {
		tr.attach(w.mon)
	}
	return w
}

func (w *world) onResult(qid uint64) {
	if w.tr != nil {
		w.tr.noteDirty(qid)
	}
}

// at returns a client's true position now.
func (w *world) at(id uint64) Point {
	if w.x != nil {
		return w.x.posAt(id, w.x.now)
	}
	return w.pos[id]
}

// deliver hands refreshed safe regions to their clients. A region that does
// not contain its client's true position breaks the framework's invariant and
// is a failed operation.
func (w *world) deliver(grants []Grant) {
	for i := range grants {
		g := &grants[i]
		w.region[g.Object] = g.Region
		p := w.at(g.Object)
		if !g.Region.Contains(p) {
			w.res.failed++
		}
		if w.x != nil {
			w.x.schedule(g.Object, g.Region)
		}
		if w.tr != nil {
			w.tr.noteGrant(g, p)
		}
	}
	w.res.grants += int64(len(grants))
}

// setup builds the population and registers the queries; its wall time is the
// repetition's setup_s sample.
func (w *world) setup() error {
	t0 := now()
	w.mon.SetTime(0)
	if w.tr != nil {
		w.tr.addObjects(w)
	} else {
		for i, p := range w.pos {
			w.deliver(w.mon.AddObject(uint64(i), p))
		}
	}
	// The two sequential workloads take register_p50_us from these set-up
	// registrations; the churn workload takes it from its steady-state ones.
	sample := w.p.churn == 0
	for i := 0; i < w.p.w; i++ {
		if err := w.register(sample); err != nil {
			return err
		}
	}
	w.res.setupSec = now().Sub(t0).Seconds()
	w.res.attempted += int64(w.p.n + w.p.w)
	return nil
}

// register registers the next generated query and delivers the grants.
func (w *world) register(sample bool) error {
	q := w.in.queries[w.nextQ]
	w.nextQ++
	t0 := now()
	_, _, grants, err := w.mon.Register(q)
	d := now().Sub(t0).Nanoseconds()
	if err != nil {
		return fmt.Errorf("register query %d: %w", q.ID, err)
	}
	if sample {
		w.pool.noteRegister(d)
	}
	w.deliver(grants)
	if w.tr != nil {
		w.tr.registered(q, d)
	}
	w.queries = append(w.queries, q)
	return nil
}

// step advances every object one time unit and lists the clients now outside
// their safe region, in ID order.
func (w *world) step() {
	w.tick++
	if w.x != nil {
		return // reports are found by their exit times
	}
	t0 := now()
	w.pos = w.in.traj[w.tick]
	w.reporters = w.reporters[:0]
	for i, p := range w.pos {
		if !w.region[i].Contains(p) {
			w.reporters = append(w.reporters, uint64(i))
		}
	}
	w.res.stepNs += now().Sub(t0).Nanoseconds()
	w.res.stepObjects += int64(len(w.pos))
	w.mon.SetTime(float64(w.tick))
}

// report sends this tick's location updates. Clocks are read at the window's
// edges; timed says whether the window counts.
func (w *world) report(timed bool) {
	var m0 uint64
	if timed {
		m0 = mallocs()
	}
	w.pool.ackNs = w.pool.ackNs[:0]
	c0 := cpuNanos()
	t0 := now()
	var sent int64
	switch {
	case w.x != nil:
		sent = w.reportExits()
	case w.p.batch > 0:
		sent = w.reportBatches()
	default:
		sent = w.reportSequential()
	}
	wall := now().Sub(t0).Nanoseconds()
	cpu := cpuNanos() - c0
	if timed {
		w.res.addWindow(window{wallNs: wall, cpuNs: cpu, allocs: mallocs() - m0, updates: sent}, w.pool)
	}
	if w.tr != nil {
		w.tr.replay(timed) // the window's calls again, layer by layer, on the mirrors
	}
}

// addWindow closes a timed window: its ack percentiles are taken from the
// samples gathered since the window opened.
func (r *repResult) addWindow(win window, pool *pools) {
	pool.acks += int64(len(pool.ackNs))
	win.ackP50 = percentileNs(pool.ackNs, 0.50)
	win.ackP99 = percentileNs(pool.ackNs, 0.99)
	r.windows = append(r.windows, win)
	r.allocs += win.allocs
	r.updates += win.updates
	r.attempted += win.updates
}

// reportSequential sends one Update per reporter. A client whose region was
// refreshed by a probe earlier in the tick holds a region that contains it
// again and stays silent, as the protocol says.
func (w *world) reportSequential() int64 {
	var sent int64
	for _, id := range w.reporters {
		p := w.pos[id]
		if w.region[id].Contains(p) {
			continue
		}
		sent++
		w.update(id, p)
	}
	return sent
}

// update sends one location update, takes its ack sample and delivers the
// grants; on a traced repetition the tracer makes and times the call.
func (w *world) update(id uint64, p Point) {
	if w.tr != nil {
		w.deliver(w.tr.update(w.mon, id, p))
		return
	}
	t0 := now()
	grants := w.mon.Update(id, p)
	w.pool.ackNs = append(w.pool.ackNs, now().Sub(t0).Nanoseconds())
	w.deliver(grants)
}

// reportExits sends, in time order, one Update per client that crosses its
// region's boundary before the end of this time unit. Finding the next exit
// (a heap pop and a few multiplications) happens inside the window; it is
// under 1 % of a kNN update.
func (w *world) reportExits() int64 {
	var sent int64
	end := float64(w.tick)
	for {
		id, ok := w.x.next(end)
		if !ok {
			break
		}
		w.mon.SetTime(w.x.now)
		sent++
		w.update(id, w.x.posAt(id, w.x.now))
	}
	w.x.now = end
	return sent
}

// sweep brings every position up to now and lets a client that is outside
// its region by less than the exit gap report before results are compared.
func (w *world) sweep() {
	for i := range w.pos {
		w.pos[i] = w.x.posAt(uint64(i), w.x.now)
	}
	for i, p := range w.pos {
		if !w.region[i].Contains(p) {
			w.deliver(w.mon.Update(uint64(i), p))
			w.res.sweepUpdates++
			w.res.attempted++
		}
	}
	if w.tr != nil {
		w.tr.settle()
	}
}

// reportBatches sends the reporters through the pipeline in ID-ordered
// batches; one batch is one ack sample.
func (w *world) reportBatches() int64 {
	var sent int64
	next := 0
	for next < len(w.reporters) {
		next = w.fillBatch(next)
		if len(w.batch) == 0 {
			break
		}
		sent += int64(len(w.batch))
		if w.tr != nil {
			w.deliver(w.tr.applyBatch(w.mon, w.pipe, w.batch))
			continue
		}
		t0 := now()
		grants := w.pipe.Apply(w.batch)
		w.pool.ackNs = append(w.pool.ackNs, now().Sub(t0).Nanoseconds())
		w.deliver(grants)
	}
	return sent
}

// fillBatch gathers the next batch from reporters[from:], skipping clients a
// probe has refreshed meanwhile, and returns where the following batch starts.
func (w *world) fillBatch(from int) int {
	w.batch = w.batch[:0]
	i := from
	for ; i < len(w.reporters) && len(w.batch) < w.p.batch; i++ {
		id := w.reporters[i]
		if p := w.pos[id]; !w.region[id].Contains(p) {
			w.batch = append(w.batch, BatchUpdate{ID: id, Loc: p})
		}
	}
	return i
}

// churnQueries replaces the oldest queries with fresh ones, outside the
// update window; each Register is one register_p50_us sample.
func (w *world) churnQueries(timed bool) error {
	for i := 0; i < w.p.churn; i++ {
		old := w.queries[0]
		w.queries = w.queries[1:]
		if w.tr != nil {
			w.tr.deregistering(old.ID)
		}
		t0 := now()
		ok := w.mon.Deregister(old.ID)
		if w.tr != nil {
			w.tr.deregistered(now().Sub(t0).Nanoseconds())
		}
		if !ok {
			w.res.failed++
		}
		if err := w.register(timed); err != nil {
			return err
		}
		w.res.attempted += 2
	}
	return nil
}

// check compares every registered query's monitored result with the oracle's
// over the true positions.
func (w *world) check() {
	t0 := now()
	if w.x != nil {
		w.sweep()
	}
	for i, p := range w.pos {
		w.oracle.Set(uint64(i), p)
	}
	h := w.res.hash
	for _, q := range w.queries {
		got, ok := w.mon.Results(q.ID)
		truth := w.oracle.Answer(q)
		w.res.pairs++
		w.res.attempted++
		if ok && sameResult(q, got, truth, &w.scratch) {
			w.res.pairsOK++
		} else if ok && w.x != nil && q.Kind == KindKNN && nearTieResult(q, got, truth, w.pos, w.p.nearTie()) {
			w.res.pairsOK++
			w.res.nearTies++
		} else {
			w.res.failed++
		}
		h = fnv(h, q.ID)
		for _, id := range got {
			h = fnv(h, id)
		}
	}
	w.res.hash = h
	w.res.oracleNs += now().Sub(t0).Nanoseconds()
	w.res.oracleRuns++
}

// run executes one repetition: set-up, warm-up ticks, then the timed ticks.
func (w *world) run() (*repResult, error) {
	if err := w.setup(); err != nil {
		return nil, err
	}
	for i := 0; i < w.p.warmTicks; i++ {
		w.step()
		w.report(false)
		if err := w.churnQueries(false); err != nil {
			return nil, err
		}
	}
	w.check()
	runtime.GC()
	stats0 := w.mon.Stats()
	var pipe0 PipelineStats
	if w.pipe != nil {
		pipe0 = w.pipe.Stats()
	}
	probes0 := w.probes
	w.res.grants, w.res.sweepUpdates = 0, 0
	for i := 1; i <= w.p.ticks; i++ {
		w.step()
		w.report(true)
		if err := w.churnQueries(true); err != nil {
			return nil, err
		}
		if i%w.p.sampleEvery == 0 || i == w.p.ticks {
			w.check()
		}
	}
	w.pool.flushRegister()
	w.res.heapMB = float64(heapAfterGC()-w.heapBase) / (1 << 20)
	w.res.probes = w.probes - probes0
	w.res.units = float64(w.p.ticks) // one tick is one time unit
	w.res.statsDelta = subStats(w.mon.Stats(), stats0)
	if w.pipe != nil {
		w.res.pipeDelta = subPipeStats(w.pipe.Stats(), pipe0)
	}
	h := w.res.hash
	for _, v := range []int64{w.res.updates, w.res.probes, w.res.statsDelta.Reevaluations, w.res.statsDelta.SafeRegionsBuilt} {
		h = fnv(h, uint64(v))
	}
	w.res.hash = h
	return w.res, nil
}
