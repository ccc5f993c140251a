package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var fr *FlightRecorder
	var r *Registry
	var s *Sink
	c.Inc()
	c.Add(5)
	g.Set(1)
	h.Observe(1)
	h.ObserveSince(time.Now())
	fr.Record(Event{Kind: KindCoreProbe})
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || fr.Total() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil || r.Histogram("x", "", nil) != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	r.GaugeFunc("x", "", func() float64 { return 1 })
	r.CounterFunc("x", "", func() int64 { return 1 })
	if err := r.WriteText(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if s.Registry() != nil || s.Recorder() != nil {
		t.Fatal("nil sink must expose nil parts")
	}
	if fr.Events() != nil {
		t.Fatal("nil recorder must dump no events")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("srb_test_total", "help", "kind", "a")
	c.Inc()
	c.Add(4)
	c.Add(-2) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("srb_test_total", "help", "kind", "a"); again != c {
		t.Fatal("re-registration must return the same counter")
	}
	g := r.Gauge("srb_test_gauge", "help")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
	r.GaugeFunc("srb_test_fn", "help", func() float64 { return 7 })
}

// TestCounterFunc pins that a scrape-time counter renders exactly like a
// Counter — TYPE counter, an integer sample, an int64 in the expvar snapshot
// — and that re-registering replaces its function.
func TestCounterFunc(t *testing.T) {
	r := NewRegistry()
	n := int64(41)
	r.CounterFunc("srb_test_total", "help", func() int64 { return n }, "kind", "a")
	n++
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := "# HELP srb_test_total help\n# TYPE srb_test_total counter\nsrb_test_total{kind=\"a\"} 42\n"
	if sb.String() != want {
		t.Fatalf("exposition = %q, want %q", sb.String(), want)
	}
	if v, ok := r.expvarSnapshot()[`srb_test_total{kind="a"}`].(int64); !ok || v != 42 {
		t.Fatalf("expvar sample = %#v, want int64 42", r.expvarSnapshot()[`srb_test_total{kind="a"}`])
	}
	r.CounterFunc("srb_test_total", "help", func() int64 { return 7 }, "kind", "a")
	sb.Reset()
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(sb.String(), `srb_test_total{kind="a"} 7`+"\n") {
		t.Fatalf("re-registration did not replace the function:\n%s", sb.String())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("srb_test_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-102.65) > 1e-9 {
		t.Fatalf("sum = %g, want 102.65", h.Sum())
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`srb_test_seconds_bucket{le="0.1"} 2`, // 0.05 and the boundary value 0.1
		`srb_test_seconds_bucket{le="1"} 3`,
		`srb_test_seconds_bucket{le="10"} 4`,
		`srb_test_seconds_bucket{le="+Inf"} 5`,
		`srb_test_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTextParsesBack(t *testing.T) {
	r := NewRegistry()
	r.Counter("srb_updates_total", "Updates processed.").Add(3)
	r.Counter("srb_knn_case_total", "kNN cases.", "case", "1").Inc()
	r.Counter("srb_knn_case_total", "kNN cases.", "case", "2").Add(2)
	r.Gauge("srb_objects", "Registered objects.").Set(42)
	r.GaugeFunc("srb_queue_depth", "Queue depth.", func() float64 { return 7 })
	r.Histogram("srb_op_seconds", "Op latency.", LatencyBuckets(), "op", "update").Observe(0.002)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, sb.String())
	}
	for name, typ := range map[string]string{
		"srb_updates_total":  "counter",
		"srb_knn_case_total": "counter",
		"srb_objects":        "gauge",
		"srb_queue_depth":    "gauge",
		"srb_op_seconds":     "histogram",
	} {
		f := fams[name]
		if f == nil {
			t.Fatalf("family %s missing", name)
		}
		if f.Type != typ {
			t.Errorf("family %s: type %q, want %q", name, f.Type, typ)
		}
		if f.Help == "" {
			t.Errorf("family %s: no HELP text", name)
		}
	}
	if got := fams["srb_updates_total"].Samples["srb_updates_total"]; got != 3 {
		t.Errorf("srb_updates_total = %g, want 3", got)
	}
	if got := fams["srb_knn_case_total"].Samples[`srb_knn_case_total{case="2"}`]; got != 2 {
		t.Errorf(`case="2" = %g, want 2`, got)
	}
	if got := fams["srb_op_seconds"].Samples[`srb_op_seconds_count{op="update"}`]; got != 1 {
		t.Errorf("op_seconds count = %g, want 1", got)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("srb_esc_total", "h", "k", `a"b\c`).Inc()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `srb_esc_total{k="a\"b\\c"} 1`) {
		t.Fatalf("label not escaped:\n%s", sb.String())
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("srb_conflict", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("registering srb_conflict as gauge should panic")
		}
	}()
	r.Gauge("srb_conflict", "h")
}

// TestRegistryFuncConflictPanics pins that one series cannot be both a
// stateful instrument and a function, in either order, while re-registering
// a function over a function still rebinds it.
func TestRegistryFuncConflictPanics(t *testing.T) {
	mustPanic := func(what string, register func(r *Registry)) {
		t.Helper()
		r := NewRegistry()
		r.CounterFunc("srb_fn_total", "h", func() int64 { return 1 }, "k", "v")
		r.GaugeFunc("srb_fn", "h", func() float64 { return 1 }, "k", "v")
		r.Counter("srb_held_total", "h", "k", "v")
		r.Gauge("srb_held", "h", "k", "v")
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", what)
			}
		}()
		register(r)
	}
	mustPanic("Counter over CounterFunc", func(r *Registry) { r.Counter("srb_fn_total", "h", "k", "v") })
	mustPanic("Gauge over GaugeFunc", func(r *Registry) { r.Gauge("srb_fn", "h", "k", "v") })
	mustPanic("CounterFunc over Counter", func(r *Registry) {
		r.CounterFunc("srb_held_total", "h", func() int64 { return 2 }, "k", "v")
	})
	mustPanic("GaugeFunc over Gauge", func(r *Registry) {
		r.GaugeFunc("srb_held", "h", func() float64 { return 2 }, "k", "v")
	})

	// Other label sets of the same family stay free to choose either form.
	r := NewRegistry()
	r.CounterFunc("srb_fn_total", "h", func() int64 { return 1 }, "k", "v")
	if c := r.Counter("srb_fn_total", "h", "k", "w"); c == nil {
		t.Fatal("Counter on a fresh series of a func family returned nil")
	}
}

func TestExpvarSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("srb_ev_total", "h").Add(9)
	r.Histogram("srb_ev_seconds", "h", []float64{1}).Observe(0.5)
	r.PublishExpvar("srb_test_expvar")
	snap := r.expvarSnapshot()
	if snap["srb_ev_total"] != int64(9) {
		t.Fatalf("expvar counter = %v, want 9", snap["srb_ev_total"])
	}
	// Rebinding the same name to a new registry must not panic and must win.
	r2 := NewRegistry()
	r2.Counter("srb_ev_total", "h").Add(1)
	r2.PublishExpvar("srb_test_expvar")
	expvarMu.Lock()
	bound := expvarTargets["srb_test_expvar"]
	expvarMu.Unlock()
	if bound != r2 {
		t.Fatal("PublishExpvar must rebind to the newest registry")
	}
}

func TestConcurrentInstrumentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("srb_conc_total", "h")
	h := r.Histogram("srb_conc_seconds", "h", LatencyBuckets())
	g := r.Gauge("srb_conc_gauge", "h")
	fr := NewFlightRecorder(64, "")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i) * 1e-6)
				g.Set(float64(i))
				fr.Record(Event{Kind: KindCoreProbe, Obj: uint64(w)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := r.WriteText(&sb); err != nil {
				t.Error(err)
				return
			}
			fr.Events()
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != 4000 {
		t.Fatalf("counter = %d, want 4000", c.Value())
	}
	if h.Count() != 4000 {
		t.Fatalf("histogram count = %d, want 4000", h.Count())
	}
	if fr.Total() != 4000 {
		t.Fatalf("recorder total = %d, want 4000", fr.Total())
	}
	if n := len(fr.Events()); n != 64 {
		t.Fatalf("recorder retained %d events, want ring size 64", n)
	}
}

func TestTracerRingAndChromeExport(t *testing.T) {
	fr := NewFlightRecorder(4, "")
	start := time.Now()
	fr.Record(Event{TS: start.UnixNano(), Dur: time.Since(start).Nanoseconds() + 1, Kind: KindCoreUpdate, Args: [2]int64{2, 3}})
	for i := 0; i < 5; i++ {
		fr.Record(Event{Kind: KindCoreProbe, Obj: uint64(i)})
	}
	evs := fr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want ring size 4", len(evs))
	}
	// The span and the first instant were overwritten; oldest retained is obj=1.
	if evs[0].Kind != KindCoreProbe || evs[0].Obj != 1 {
		t.Fatalf("oldest retained = %+v, want probe obj=1", evs[0])
	}
	if fr.Total() != 6 {
		t.Fatalf("total = %d, want 6", fr.Total())
	}

	var sb strings.Builder
	if err := fr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var out struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string           `json:"name"`
			Cat  string           `json:"cat"`
			Ph   string           `json:"ph"`
			TS   float64          `json:"ts"`
			Args map[string]int64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &out); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) != 4 {
		t.Fatalf("chrome trace has %d events, want 4", len(out.TraceEvents))
	}
	for i, e := range out.TraceEvents {
		if e.Ph != "i" || e.Cat != "core" || e.Name != "probe" {
			t.Errorf("event %d: ph/cat/name = %q/%q/%q, want i/core/probe", i, e.Ph, e.Cat, e.Name)
		}
		if e.Args["obj"] != int64(i+1) {
			t.Errorf("event %d: args %v, want obj=%d", i, e.Args, i+1)
		}
	}

	// A wire-level kind has no layer prefix and shows under "flight".
	fr.Record(Event{Kind: FlightGrant, Trace: 9, Obj: 4})
	sb.Reset()
	if err := fr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(sb.String()), &out); err != nil {
		t.Fatal(err)
	}
	last := out.TraceEvents[len(out.TraceEvents)-1]
	if last.Cat != "flight" || last.Name != "grant" || last.Args["trace"] != 9 || last.Args["obj"] != 4 {
		t.Fatalf("wire event rendered as %+v", last)
	}
}

func TestTracerSpanPhases(t *testing.T) {
	fr := NewFlightRecorder(8, "")
	start := time.Now().Add(-time.Millisecond)
	fr.Record(Event{TS: start.UnixNano(), Dur: time.Since(start).Nanoseconds(), Kind: KindBatchPlan, Args: [2]int64{10, 7}})
	var sb strings.Builder
	if err := fr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var out map[string]interface{}
	if err := json.Unmarshal([]byte(sb.String()), &out); err != nil {
		t.Fatal(err)
	}
	evs := out["traceEvents"].([]interface{})
	ev := evs[0].(map[string]interface{})
	if ev["ph"] != "X" || ev["cat"] != "batch" || ev["name"] != "plan" {
		t.Fatalf("span ph/cat/name = %v/%v/%v, want X/batch/plan", ev["ph"], ev["cat"], ev["name"])
	}
	if dur, ok := ev["dur"].(float64); !ok || dur < 900 {
		t.Fatalf("span dur = %v µs, want >= 900 (1ms sleep)", ev["dur"])
	}
	if args := ev["args"].(map[string]interface{}); args["updates"].(float64) != 10 || args["planned"].(float64) != 7 {
		t.Fatalf("span args = %v", args)
	}
	// The NDJSON view of the same span carries the named arguments.
	var buf strings.Builder
	if err := fr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var line map[string]interface{}
	if err := json.Unmarshal([]byte(buf.String()), &line); err != nil {
		t.Fatalf("NDJSON line does not parse: %v (%q)", err, buf.String())
	}
	if line["kind"] != KindBatchPlan || line["updates"].(float64) != 10 || line["dur_ns"].(float64) <= 0 {
		t.Fatalf("NDJSON span = %v", line)
	}
}

func TestParseTextRejectsMalformed(t *testing.T) {
	cases := []string{
		"srb_orphan 1\n", // sample without HELP/TYPE
		"# HELP srb_x h\n# TYPE srb_x counter\nsrb_x notanumber\n",
		"# HELP srb_x h\nsrb_x 1\n", // missing TYPE
		"# HELP srb_x h\n# TYPE srb_x flurble\nsrb_x 1\n",
	}
	for _, c := range cases {
		if _, err := ParseText(strings.NewReader(c)); err == nil {
			t.Errorf("ParseText accepted malformed input %q", c)
		}
	}
}

// TestEventNDJSONDecodes renders one event of every kind with arguments, plus
// a slow op, and checks each line decodes back into an Event with its fixed
// fields intact: an argument name that shadowed a fixed key would corrupt
// the line for every NDJSON reader.
func TestEventNDJSONDecodes(t *testing.T) {
	evs := []Event{{Kind: FlightSlowOp, Trace: 5, Dur: 9, Note: "update",
		Slow: &SlowOp{Probes: 1, Reevals: 2, SafeRegions: 3, ResultChanges: 4, Chain: []uint64{7, 8}}}}
	for kind := range argNames {
		evs = append(evs, Event{Kind: kind, Trace: 5, Obj: 6, Query: 7, Dur: 9, Note: "n\"q", Args: [2]int64{-1, 2}})
	}
	fixed := map[string]bool{"ts": true, "kind": true, "trace": true, "obj": true, "query": true, "dur_ns": true, "note": true, "chain": true}
	for _, ev := range evs {
		ev.TS = 1
		line := ev.AppendNDJSON(nil)
		var back Event
		if err := json.Unmarshal(line, &back); err != nil {
			t.Fatalf("%s: line does not decode: %v (%s)", ev.Kind, err, line)
		}
		if back.TS != 1 || back.Kind != ev.Kind || back.Trace != 5 || back.Dur != 9 || back.Note != ev.Note {
			t.Errorf("%s: decoded %+v from %s", ev.Kind, back, line)
		}
		ev.ints(func(k string, _ int64) {
			if fixed[k] {
				t.Errorf("%s: argument %q shadows a fixed key", ev.Kind, k)
			}
		})
	}
}
