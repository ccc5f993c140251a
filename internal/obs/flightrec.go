package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// DefaultFlightDepth is the ring size used when NewFlightRecorder is given a
// non-positive size.
const DefaultFlightDepth = 65536

// FlightRecorder is the one event ring: an always-on bounded ring of recent
// Events with automatic dumping. Every layer records into it; /trace renders
// it as Chrome trace JSON, /debug/flightrec and dump files as NDJSON.
// TriggerDump hands a reason to a background writer that persists the ring as
// a timestamped NDJSON file, rate-limited so a breach storm produces one
// dump, not hundreds. Recording is one short mutex-guarded struct store, so a
// reader never sees a torn event; a nil *FlightRecorder discards everything,
// so instrumented code records unconditionally.
type FlightRecorder struct {
	mu       sync.Mutex
	buf      []Event
	n        uint64
	epoch    int64 // unix nanoseconds at creation: the Chrome view's time zero
	lastDump time.Time
	paths    []string // dump files written, oldest first
	logf     func(format string, args ...interface{})

	dir    string
	minGap time.Duration

	// dumps carries trigger reasons to the writer goroutine, which the first
	// TriggerDump starts; a recorder that never dumps runs no goroutine.
	// dumps is never closed — TriggerDump may race Close, and a send on a
	// closed channel panics — so shutdown is signalled on stop instead, and
	// the writer drains any queued reason before exiting.
	dumps  chan string
	stop   chan struct{}
	done   chan struct{}
	closed bool
}

// NewFlightRecorder creates a recorder retaining the last size events and
// dumping into dir (created on first dump). Automatic dumps are spaced at
// least 5s apart; SetMinGap adjusts.
func NewFlightRecorder(size int, dir string) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightDepth
	}
	return &FlightRecorder{
		buf:    make([]Event, size),
		epoch:  time.Now().UnixNano(), //lint:allow wallclock flight-recorder timestamps are wall-clock by design
		dir:    dir,
		minGap: 5 * time.Second,
		stop:   make(chan struct{}),
	}
}

// SetLogf installs a logger for dump outcomes (nil silences).
func (fr *FlightRecorder) SetLogf(logf func(format string, args ...interface{})) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	fr.logf = logf
	fr.mu.Unlock()
}

// SetMinGap adjusts the minimum spacing between automatic dumps.
func (fr *FlightRecorder) SetMinGap(d time.Duration) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	fr.minGap = d
	fr.mu.Unlock()
}

// Record appends one event to the ring. A zero TS is stamped with the
// current wall clock.
func (fr *FlightRecorder) Record(ev Event) {
	if fr == nil {
		return
	}
	if ev.TS == 0 {
		ev.TS = time.Now().UnixNano() //lint:allow wallclock flight-recorder timestamps are wall-clock by design
	}
	fr.mu.Lock()
	fr.buf[fr.n%uint64(len(fr.buf))] = ev
	fr.n++
	fr.mu.Unlock()
}

// Total returns how many events were ever recorded.
func (fr *FlightRecorder) Total() uint64 {
	if fr == nil {
		return 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.n
}

// Events returns the retained events, oldest first.
func (fr *FlightRecorder) Events() []Event {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	size := uint64(len(fr.buf))
	if fr.n <= size {
		return append([]Event(nil), fr.buf[:fr.n]...)
	}
	out := make([]Event, 0, size)
	start := fr.n % size
	out = append(out, fr.buf[start:]...)
	out = append(out, fr.buf[:start]...)
	return out
}

// WriteNDJSON renders the retained events as newline-delimited JSON, oldest
// first.
func (fr *FlightRecorder) WriteNDJSON(w io.Writer) error {
	var b []byte
	for _, ev := range fr.Events() {
		b = ev.AppendNDJSON(b[:0])
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// TriggerDump asks the background writer to persist the ring, recording the
// reason as a dump marker. Rate-limited: triggers inside the minimum gap are
// dropped, and a trigger arriving while a dump is already queued coalesces
// into it. The first trigger starts the writer; after Close, triggers are
// dropped.
func (fr *FlightRecorder) TriggerDump(reason string) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	now := time.Now() //lint:allow wallclock flight-recorder dump spacing is wall-clock by design
	if fr.closed || (!fr.lastDump.IsZero() && now.Sub(fr.lastDump) < fr.minGap) {
		fr.mu.Unlock()
		return
	}
	fr.lastDump = now
	if fr.dumps == nil {
		fr.dumps = make(chan string, 1)
		fr.done = make(chan struct{})
		// Lifecycle: the writer exits when Close closes fr.stop and signals
		// via fr.done; dump I/O must not stall the event loop that triggers it.
		go fr.dumpLoop()
	}
	dumps := fr.dumps
	fr.mu.Unlock()
	select {
	case dumps <- reason:
	default: // a queued dump will carry this window's evidence too
	}
}

// DumpFile synchronously persists the ring as a timestamped NDJSON file in
// the recorder's directory, prefixed with a dump marker naming the reason.
// Used directly by the SIGQUIT handler; automatic triggers go through
// TriggerDump so the event loop never blocks on disk.
func (fr *FlightRecorder) DumpFile(reason string) (string, error) {
	if fr == nil {
		return "", fmt.Errorf("obs: no flight recorder")
	}
	fr.Record(Event{Kind: FlightDump, Note: reason})
	dir := fr.dir
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("flightrec-%d.ndjson", time.Now().UnixNano())) //lint:allow wallclock flight-recorder dump filenames are wall-clock by design
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	if err := fr.WriteNDJSON(bw); err != nil {
		f.Close()
		return "", err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	fr.mu.Lock()
	fr.paths = append(fr.paths, path)
	fr.mu.Unlock()
	return path, nil
}

// DumpPaths returns the dump files written so far, oldest first.
func (fr *FlightRecorder) DumpPaths() []string {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return append([]string(nil), fr.paths...)
}

// dumpLoop drains dump triggers until Close, writing one final queued dump
// (if any) on the way out.
func (fr *FlightRecorder) dumpLoop() {
	defer close(fr.done)
	for {
		select {
		case reason := <-fr.dumps:
			fr.writeDump(reason)
		case <-fr.stop:
			select {
			case reason := <-fr.dumps:
				fr.writeDump(reason)
			default:
			}
			return
		}
	}
}

// writeDump runs one queued dump and logs the outcome.
func (fr *FlightRecorder) writeDump(reason string) {
	path, err := fr.DumpFile(reason) //lint:allow errdrop outcome goes to logf when configured; without a logger there is nowhere to report it
	fr.mu.Lock()
	logf := fr.logf
	fr.mu.Unlock()
	if logf == nil {
		return
	}
	if err != nil {
		logf("flightrec: dump (%s) failed: %v", reason, err)
	} else {
		logf("flightrec: dumped %s (%s)", path, reason)
	}
}

// Close stops the background writer, if a trigger started one, after
// draining any queued dump. The recorder keeps accepting Record calls
// afterwards; only automatic dumping stops.
func (fr *FlightRecorder) Close() {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	if fr.closed {
		fr.mu.Unlock()
		return
	}
	fr.closed = true
	done := fr.done
	fr.mu.Unlock()
	close(fr.stop)
	if done != nil {
		<-done
	}
}

// ServeHTTP serves the current ring as NDJSON, so a FlightRecorder can be
// mounted directly on a mux (e.g. under /debug/flightrec).
func (fr *FlightRecorder) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	if fr == nil {
		http.Error(w, "flight recorder disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	// A failed write means the scraper went away; nothing to do about it here.
	_ = fr.WriteNDJSON(w) //lint:allow errdrop scraper disconnect is not actionable
}
