package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// stressNames maps a payload value to the event kind a writer must have used,
// giving readers an internal-consistency relation to detect torn events: for
// every observed event, Kind, Trace, Obj and both Args must all derive from
// the same value.
var stressNames = [3]string{"alpha", "beta", "gamma"}

// TestTracerConcurrentWrapNoTornEvents hammers a tiny ring with concurrent
// span and instant writers — every record wraps the ring — while readers
// continuously export both views. Every observed event must be internally
// consistent (payload fields all from one writer) and the retained window
// must stay bounded. Run under -race this also pins the memory-safety of the
// ring's single mutex.
func TestTracerConcurrentWrapNoTornEvents(t *testing.T) {
	const (
		ringSize = 8
		writers  = 8
		iters    = 2000
	)
	fr := NewFlightRecorder(ringSize, "")

	check := func(e Event) {
		v := int64(e.Trace)
		if e.Args[0] != v || e.Args[1] != v || e.Obj != e.Trace {
			t.Errorf("torn event: trace=%d obj=%d args=%v", e.Trace, e.Obj, e.Args)
		}
		if want := stressNames[v%3]; e.Kind != want {
			t.Errorf("torn event: kind %q does not match payload %d (want %q)", e.Kind, v, want)
		}
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				evs := fr.Events()
				if len(evs) > ringSize {
					t.Errorf("retained %d events, ring size %d", len(evs), ringSize)
				}
				for _, e := range evs {
					check(e)
				}
				if err := fr.WriteChromeTrace(io.Discard); err != nil {
					t.Errorf("chrome export: %v", err)
				}
				if err := fr.WriteNDJSON(io.Discard); err != nil {
					t.Errorf("ndjson export: %v", err)
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start := time.Now()
			for i := 0; i < iters; i++ {
				v := int64(w*iters + i)
				ev := Event{Kind: stressNames[v%3], Trace: uint64(v), Obj: uint64(v), Args: [2]int64{v, v}}
				if i%2 == 1 {
					ev.TS, ev.Dur = start.UnixNano(), time.Since(start).Nanoseconds()+1
				}
				fr.Record(ev)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if got, want := fr.Total(), uint64(writers*iters); got != want {
		t.Fatalf("total = %d, want %d (no record may be lost from the count)", got, want)
	}
	evs := fr.Events()
	if len(evs) != ringSize {
		t.Fatalf("retained %d events after quiescence, want %d", len(evs), ringSize)
	}
	for _, e := range evs {
		check(e)
	}

	// The final export must be valid JSON with the trace IDs surfaced.
	var buf bytes.Buffer
	if err := fr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Args map[string]int64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	for _, ce := range out.TraceEvents {
		if ce.Args["trace"] != ce.Args["obj"] {
			t.Fatalf("chrome args lost the trace correlation: %v", ce.Args)
		}
	}
}

// TestFlightRecorderRingAndDump covers the ring semantics, the NDJSON
// exposition, and both dump paths (synchronous and triggered).
func TestFlightRecorderRingAndDump(t *testing.T) {
	dir := t.TempDir()
	fr := NewFlightRecorder(4, dir)
	defer fr.Close()
	if fr.done != nil {
		t.Fatal("a recorder that has not dumped must not run a writer goroutine")
	}

	for i := 0; i < 6; i++ {
		fr.Record(Event{Kind: FlightUpdate, Obj: uint64(i), Trace: uint64(100 + i)})
	}
	evs := fr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want ring size 4", len(evs))
	}
	if evs[0].Obj != 2 || evs[3].Obj != 5 {
		t.Fatalf("ring order wrong: oldest obj=%d newest obj=%d", evs[0].Obj, evs[3].Obj)
	}
	if fr.Total() != 6 {
		t.Fatalf("total = %d, want 6", fr.Total())
	}
	for _, e := range evs {
		if e.TS == 0 {
			t.Fatal("Record must stamp a zero TS")
		}
	}

	var buf bytes.Buffer
	if err := fr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("NDJSON has %d lines, want 4", len(lines))
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("NDJSON line does not parse: %v", err)
	}
	if ev.Kind != FlightUpdate || ev.Trace != 102 {
		t.Fatalf("decoded %+v, want update trace=102", ev)
	}

	// Synchronous dump: marker plus ring, parseable line by line.
	path, err := fr.DumpFile("test-reason")
	if err != nil {
		t.Fatalf("DumpFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sawMarker bool
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("dump line does not parse: %v (%q)", err, line)
		}
		if e.Kind == FlightDump && e.Note == "test-reason" {
			sawMarker = true
		}
	}
	if !sawMarker {
		t.Fatal("dump file has no marker naming the trigger reason")
	}
	if got := fr.DumpPaths(); len(got) != 1 || got[0] != path {
		t.Fatalf("DumpPaths = %v, want [%s]", got, path)
	}

	// Triggered dump goes through the background writer; rate limiting folds
	// the second trigger into the first window.
	fr.SetMinGap(time.Hour)
	fr.TriggerDump("storm")
	fr.TriggerDump("storm-again")
	deadline := time.Now().Add(5 * time.Second)
	for len(fr.DumpPaths()) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("triggered dump never landed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := len(fr.DumpPaths()); n != 2 {
		t.Fatalf("wrote %d dumps, want 2 (rate limit must drop the second trigger)", n)
	}
}

// TestFlightRecorderNil pins nil-safety: a nil recorder discards everything.
func TestFlightRecorderNil(t *testing.T) {
	var fr *FlightRecorder
	fr.Record(Event{Kind: FlightUpdate})
	fr.TriggerDump("x")
	fr.SetMinGap(time.Second)
	fr.SetLogf(nil)
	fr.Close()
	if fr.Events() != nil || fr.Total() != 0 || fr.DumpPaths() != nil {
		t.Fatal("nil recorder must read empty")
	}
	if _, err := fr.DumpFile("x"); err == nil {
		t.Fatal("nil recorder DumpFile must error")
	}
}
