package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
)

// chromeEvent is one entry of the Chrome trace-event JSON format, loadable in
// chrome://tracing and Perfetto (https://ui.perfetto.dev).
type chromeEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	TS   float64          `json:"ts"` // microseconds since the recorder's creation
	Dur  *float64         `json:"dur,omitempty"`
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	S    string           `json:"s,omitempty"` // instant-event scope
	Args map[string]int64 `json:"args,omitempty"`
}

type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// WriteChromeTrace renders the retained events as Chrome trace-event JSON: a
// span (Dur > 0) as a complete event, anything else as an instant. A prefixed
// kind ("core.update") splits into category and name; an unprefixed
// wire-level kind gets the category "flight". The integer fields become args,
// the causal trace ID among them as "trace", so one wire update's whole chain
// is one search away in the trace viewer.
func (fr *FlightRecorder) WriteChromeTrace(w io.Writer) error {
	evs := fr.Events()
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(evs))}
	for i := range evs {
		e := &evs[i]
		ce := chromeEvent{Cat: "flight", Name: e.Kind, TS: float64(e.TS-fr.epoch) / 1e3, Pid: 1, Tid: 1}
		if cat, name, ok := strings.Cut(e.Kind, "."); ok {
			ce.Cat, ce.Name = cat, name
		}
		if e.Dur > 0 {
			ce.Ph = "X"
			d := float64(e.Dur) / 1e3
			ce.Dur = &d
		} else {
			ce.Ph = "i"
			ce.S = "g"
		}
		args := make(map[string]int64)
		e.ints(func(k string, v int64) { args[k] = v })
		if e.Obj != 0 {
			args["obj"] = int64(e.Obj)
		}
		if e.Query != 0 {
			args["query"] = int64(e.Query)
		}
		if e.Trace != 0 {
			args["trace"] = int64(e.Trace)
		}
		if len(args) > 0 {
			ce.Args = args
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	return json.NewEncoder(w).Encode(out)
}

// ServeChromeTrace serves the ring as Chrome trace JSON; mount it with
// mux.HandleFunc (e.g. under /trace).
func (fr *FlightRecorder) ServeChromeTrace(w http.ResponseWriter, _ *http.Request) {
	if fr == nil {
		http.Error(w, "tracing disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="srb-trace.json"`)
	// A failed write means the downloader went away; nothing to do here.
	_ = fr.WriteChromeTrace(w) //lint:allow errdrop client disconnect is not actionable
}

// Sink bundles a metrics Registry and the event ring into the single handle
// instrumented components accept. A nil *Sink (and a Sink with nil parts) is
// fully operational as "observability off": Registry() and Recorder() return
// nil, which every downstream constructor and instrument tolerates.
type Sink struct {
	reg *Registry
	fr  *FlightRecorder
}

// NewSink bundles a registry and a ring; either may be nil to enable only
// the other half.
func NewSink(reg *Registry, fr *FlightRecorder) *Sink {
	return &Sink{reg: reg, fr: fr}
}

// Registry returns the sink's registry, or nil.
func (s *Sink) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Recorder returns the sink's event ring, or nil.
func (s *Sink) Recorder() *FlightRecorder {
	if s == nil {
		return nil
	}
	return s.fr
}
