package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
)

// The wire-ack workload runs the full stack on loopback: a server recovered
// from a journal the benchmark wrote, one mobile client whose every step
// leaves its safe region, and one application client that registers and
// removes a query between blocks of acks. Both are closed loops: the next
// request goes out when the previous one has been answered, so the load is two
// connections and never more than one request in flight.

// wireWindowBlocks is how many blocks of wireBlock acks make one timed window
// (1024 acks: enough for the window's own 99th percentile).
const wireWindowBlocks = 16

// outDir is where a run keeps its journal directories and traces, inside the
// benchmark's own directory and ignored by git.
const outDir = "out"

// genWireInputs adds the static population and the client's path: steps of
// 0.03 to 0.06 in a random direction, reflected at the walls and drawn again
// if the reflection brought the client back into the grid cell it left. A safe
// region never spans more than a cell, so every step is a report.
func genWireInputs(in *inputs, rng *rand.Rand) {
	p := in.p
	in.start = make([]Point, p.n)
	for i := range in.start {
		in.start[i] = Point{X: rng.Float64(), Y: rng.Float64()}
	}
	steps := (p.warmTicks + p.ticks*wireWindowBlocks) * wireBlock
	in.path = make([]Point, steps+1)
	cur := Point{X: rng.Float64(), Y: rng.Float64()}
	in.path[0] = cur
	for i := 1; i <= steps; i++ {
		next := cur
		for gridCell(next) == gridCell(cur) {
			angle := rng.Float64() * 2 * math.Pi
			length := 0.03 + 0.03*rng.Float64()
			next = Point{X: reflect(cur.X + length*math.Cos(angle)), Y: reflect(cur.Y + length*math.Sin(angle))}
		}
		cur = next
		in.path[i] = cur
	}
}

// gridCell returns the index of the grid cell that holds p.
func gridCell(p Point) int {
	col := math.Min(math.Floor(p.X*gridM), gridM-1)
	row := math.Min(math.Floor(p.Y*gridM), gridM-1)
	return int(row)*gridM + int(col)
}

// reflect folds a coordinate that left [0, 1] back inside.
func reflect(x float64) float64 {
	if x < 0 {
		return -x
	}
	if x > 1 {
		return 2 - x
	}
	return x
}

// wireWorld is one repetition of the wire-ack workload.
type wireWorld struct {
	p    params
	in   *inputs
	res  *repResult
	pool *pools
	tr   *tracer

	dir     string
	mirror  *Monitor       // the monitor the journal was written from; kept in step on traced repetitions
	journal *JournalWriter // the journal whose open entry takes the mirror's probe answers, if any
	srv     *Server
	mobile  *MobileSession
	app     *AppSession
	oracle  *Oracle

	clientID  uint64
	clientPos Point
	step      int // next entry of in.path
	nextQ     int // next entry of in.queries
	scratch   []uint64
	recoverS  float64
	heapBase  uint64 // live heap before the program's side was built
}

func runWireRep(in *inputs, pool *pools, tr *tracer, rep int) (*repResult, error) {
	w := &wireWorld{
		p: in.p, in: in, pool: pool, tr: tr,
		res:      &repResult{hash: fnvOffset, clients: 1},
		clientID: uint64(in.p.n),
		oracle:   newOracle(in.p.n),
	}
	for i, p := range in.start {
		w.oracle.Set(uint64(i), p)
	}
	w.heapBase = heapAfterGC()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, fmt.Sprintf("wire-rep%d-", rep))
	if err != nil {
		return nil, err
	}
	w.dir = dir
	defer os.RemoveAll(dir)
	defer w.close()
	if err := w.setup(); err != nil {
		return nil, err
	}
	return w.res, w.run()
}

func (w *wireWorld) close() {
	if w.mobile != nil {
		w.mobile.Close()
	}
	if w.app != nil {
		w.app.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
}

// truePos answers probes the way the live system will: a static object is
// where it was added, the client where it last moved.
func (w *wireWorld) truePos(id uint64) Point {
	if id == w.clientID {
		return w.clientPos
	}
	return w.in.start[id]
}

// setup writes the journal of the population and its queries by running them
// through a local monitor the way the server's event loop would, recovers a
// server from it, turns journaling on, and connects the two clients. All of
// it is the repetition's setup_s sample.
func (w *wireWorld) setup() error {
	t0 := now()
	var journal bytes.Buffer
	jw := newJournalWriter(&journal)
	w.journal = jw
	w.mirror = newMonitor(func(id uint64) Point {
		p := w.truePos(id)
		if w.journal != nil {
			w.journal.NoteProbe(id, p) // a journal entry carries the probe answers its replay will need
		}
		return p
	}, nil)
	if w.tr != nil {
		w.tr.attach(w.mirror)
	}
	for i, p := range w.in.start {
		jw.BeginAdd(uint64(i), p)
		w.mirror.AddObject(uint64(i), p)
		if err := jw.Commit(); err != nil {
			return err
		}
	}
	for ; w.nextQ < w.p.w; w.nextQ++ {
		q := w.in.queries[w.nextQ]
		jw.BeginRegister(q)
		if _, _, _, err := w.mirror.Register(q); err != nil {
			return err
		}
		if err := jw.Commit(); err != nil {
			return err
		}
		if w.tr != nil {
			w.tr.mirrors.InsertQuery(q.ID)
		}
	}
	if err := writeJournalFile(w.dir, journal.Bytes()); err != nil {
		return err
	}
	srv, recoverS, err := startServer(w.dir)
	if err != nil {
		return fmt.Errorf("recover server: %w", err)
	}
	w.srv, w.recoverS = srv, recoverS
	if srv.Entries != w.p.n+w.p.w {
		return fmt.Errorf("server replayed %d journal entries, want %d", srv.Entries, w.p.n+w.p.w)
	}
	w.clientPos = w.in.path[0]
	w.step = 1
	if w.mobile, err = dialMobile(srv.Addr(), w.clientID, w.clientPos); err != nil {
		return fmt.Errorf("dial mobile client: %w", err)
	}
	if w.app, err = dialApp(srv.Addr()); err != nil {
		return fmt.Errorf("dial app client: %w", err)
	}
	w.journal = nil
	w.res.setupSec = now().Sub(t0).Seconds()
	w.res.attempted += int64(w.p.n + w.p.w + 2)
	if w.tr != nil {
		w.mirror.AddObject(w.clientID, w.clientPos) // what the server did on the hello
		return w.tr.wireSetup(w)
	}
	w.mirror = nil // only traced repetitions replay on it; do not count it as heap
	return nil
}

// block runs wireBlock closed-loop acks and adds their wall time, CPU time and
// allocations to win.
func (w *wireWorld) block(win *window) {
	first := w.step
	m0 := mallocs()
	c0 := cpuNanos()
	t0 := now()
	for i := 0; i < wireBlock; i++ {
		p := w.in.path[w.step]
		w.step++
		w.clientPos = p
		sent := now()
		d, err := w.mobile.Ack(p)
		if err != nil {
			w.res.failed++
			continue
		}
		w.pool.ackNs = append(w.pool.ackNs, d.Nanoseconds())
		if w.tr != nil {
			w.tr.noteAck(sent, d.Nanoseconds())
		}
		if r, ok := w.mobile.Region(); !ok || !r.Contains(p) {
			w.res.failed++
		}
	}
	win.wallNs += now().Sub(t0).Nanoseconds()
	win.cpuNs += cpuNanos() - c0
	win.allocs += mallocs() - m0
	win.updates += wireBlock
	if w.tr != nil {
		w.tr.wireBlock(w, w.in.path[first:w.step])
	}
}

// roundTrip registers the next query, compares the reply with the oracle over
// the true positions, and removes the query again.
func (w *wireWorld) roundTrip(timed bool) {
	q := w.in.queries[w.nextQ]
	w.nextQ++
	w.oracle.Set(w.clientID, w.clientPos)
	t0 := now()
	ids, count, err := w.app.Register(q)
	d := now().Sub(t0).Nanoseconds()
	w.res.attempted += 2
	if err != nil {
		w.res.failed++
		return
	}
	if timed {
		w.pool.noteRegister(d)
	}
	truth := w.oracle.Answer(q)
	w.res.pairs++
	ok := count == len(truth)
	if ok && q.Kind != KindCount {
		ok = sameResult(q, ids, truth, &w.scratch)
	}
	if ok {
		w.res.pairsOK++
	} else {
		w.res.failed++
	}
	h := fnv(w.res.hash, q.ID)
	h = fnv(h, uint64(count))
	for _, id := range ids {
		h = fnv(h, id)
	}
	w.res.hash = h
	if err := w.app.Deregister(q.ID); err != nil {
		w.res.failed++
	}
	if w.tr != nil {
		w.tr.wireRoundTrip(w, q, d)
	}
}

func (w *wireWorld) run() error {
	for i := 0; i < w.p.warmTicks; i++ {
		w.pool.ackNs = w.pool.ackNs[:0]
		w.block(new(window))
		w.roundTrip(false)
	}
	runtime.GC()
	_, probes0 := w.mobile.Counts()
	for i := 0; i < w.p.ticks; i++ {
		w.pool.ackNs = w.pool.ackNs[:0]
		var win window
		for b := 0; b < wireWindowBlocks; b++ {
			w.block(&win)
			w.roundTrip(true)
		}
		w.res.addWindow(win, w.pool)
	}
	w.pool.flushRegister()
	if w.tr != nil {
		if err := w.tr.wireFinish(w); err != nil {
			return err
		}
	}
	w.res.heapMB = float64(heapAfterGC()-w.heapBase) / (1 << 20)
	_, probes1 := w.mobile.Counts()
	w.res.probes = probes1 - probes0
	w.res.units = float64(w.res.updates) // one step of the client is one time unit
	w.res.failed += w.mobile.Overflow()  // a dropped grant event is an ack the driver could not time
	h := w.res.hash
	for _, v := range []int64{w.res.updates, w.res.probes} {
		h = fnv(h, uint64(v))
	}
	w.res.hash = h
	return nil
}

// journalPath is where a traced repetition keeps the journal it replays
// appends on.
func (w *wireWorld) journalPath() string { return filepath.Join(w.dir, "mirror.ndjson") }
