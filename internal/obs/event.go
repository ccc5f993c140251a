package obs

import (
	"encoding/json"
	"strconv"
)

// Event is the one record every layer emits: a wire-level causal event
// (update received, region granted, probe issued, query registered, session
// resumed), an anomaly marker (slow op, dump), or a decision-level event from
// an instrumented layer (an op or batch-phase span, a probe or kNN-case
// instant). It is fixed-size apart from the slow-op detail, so recording one
// never allocates. Every output of the ring — /trace, /debug/flightrec, dump
// files and the slow-op log — renders these fields.
//
// The json tags let a reader decode the ring's NDJSON back into an Event;
// AppendNDJSON is the encoder.
type Event struct {
	TS    int64  `json:"ts"` // unix nanoseconds; a span's start
	Kind  string `json:"kind"`
	Trace uint64 `json:"trace,omitempty"` // causal trace ID from the wire frame
	Obj   uint64 `json:"obj,omitempty"`
	Query uint64 `json:"query,omitempty"`
	Dur   int64  `json:"dur_ns,omitempty"` // span length; 0 marks an instant
	Note  string `json:"note,omitempty"`

	// Args are the kind's integer arguments, named by argNames.
	Args [2]int64 `json:"-"`
	// Slow is the work of a monitor operation over the slow-op threshold;
	// nil on every other event. Slow ops are the cold path, so this is the
	// one part of a record that may allocate.
	Slow *SlowOp `json:"-"`
}

// FlightEvent is Event under the name that readers of /debug/flightrec
// (srb-load's flight check) decode its lines into.
type FlightEvent = Event

// SlowOp is a slow operation's work deltas and the queries it touched.
type SlowOp struct {
	Probes        int64
	Reevals       int64
	SafeRegions   int64
	ResultChanges int64
	Chain         []uint64 // queries touched, capped by the monitor
}

// Event kinds. The unprefixed kinds are the wire-level causal chain and its
// anomaly markers, which the server records with or without a sink. The
// prefixed kinds come from layers with a sink attached; the prefix names the
// layer, which the Chrome view shows as the event's category.
const (
	FlightUpdate    = "update"    // location update received off the wire
	FlightGrant     = "grant"     // safe-region grant pushed to a client
	FlightProbe     = "probe"     // server-initiated probe issued
	FlightRegister  = "register"  // query (de)registration processed
	FlightReconnect = "reconnect" // session resumed or rejoined
	FlightSlowOp    = "slow_op"   // monitor op over -slowop, or event-loop request over -slo
	FlightDump      = "dump"      // dump marker carrying the trigger reason

	KindCoreUpdate       = "core.update"   // span: Monitor.Update
	KindCoreAdd          = "core.add"      // span: Monitor.AddObject
	KindCoreRemove       = "core.remove"   // span: Monitor.RemoveObject
	KindCoreRegister     = "core.register" // span: a query registration
	KindCoreReevaluate   = "core.reevaluate"
	KindCoreDeregister   = "core.deregister"
	KindCoreProbe        = "core.probe"
	KindCoreProbeAvoided = "core.probe-avoided"
	KindCoreShrink       = "core.sr-shrink-reachability" // §6.1 virtual probe
	KindCoreKNNCase      = "core.knn-case"               // §4.3 case taken
	KindBatchPlan        = "batch.plan"                  // span: parallel plan phase
	KindBatchApply       = "batch.apply"                 // span: serial apply phase
	KindServerBatch      = "server.batch"                // span: one coalesced update batch
)

// argNames names the integer arguments of the kinds that carry them.
var argNames = map[string][2]string{
	KindCoreUpdate:     {"probes", "reevals"},
	KindCoreAdd:        {"probes", "reevals"},
	KindCoreRemove:     {"probes", "reevals"},
	KindCoreRegister:   {"probes", "reevals"},
	KindCoreReevaluate: {"query_kind"},
	KindCoreKNNCase:    {"case"},
	KindBatchPlan:      {"updates", "planned"},
	KindBatchApply:     {"fast", "fallback"},
	KindServerBatch:    {"updates", "queued"},
}

// ints calls f for each integer field the event shows beyond the fixed
// NDJSON keys: the kind's named arguments, then the slow-op work.
func (e *Event) ints(f func(key string, v int64)) {
	for i, k := range argNames[e.Kind] {
		if k != "" {
			f(k, e.Args[i])
		}
	}
	if s := e.Slow; s != nil {
		f("probes", s.Probes)
		f("reevals", s.Reevals)
		f("safe_regions", s.SafeRegions)
		f("result_changes", s.ResultChanges)
	}
}

// AppendNDJSON appends the event as one JSON object and a newline: the keys
// ts, kind, trace, obj, query, dur_ns and note (zero values omitted), the
// kind's named arguments, and for a slow op its work deltas and chain.
func (e *Event) AppendNDJSON(b []byte) []byte {
	b = append(b, `{"ts":`...)
	b = strconv.AppendInt(b, e.TS, 10)
	b = append(b, `,"kind":`...)
	b = appendString(b, e.Kind)
	if e.Trace != 0 {
		b = append(b, `,"trace":`...)
		b = strconv.AppendUint(b, e.Trace, 10)
	}
	if e.Obj != 0 {
		b = append(b, `,"obj":`...)
		b = strconv.AppendUint(b, e.Obj, 10)
	}
	if e.Query != 0 {
		b = append(b, `,"query":`...)
		b = strconv.AppendUint(b, e.Query, 10)
	}
	if e.Dur != 0 {
		b = append(b, `,"dur_ns":`...)
		b = strconv.AppendInt(b, e.Dur, 10)
	}
	if e.Note != "" {
		b = append(b, `,"note":`...)
		b = appendString(b, e.Note)
	}
	e.ints(func(k string, v int64) {
		b = append(b, ',', '"')
		b = append(b, k...)
		b = append(b, '"', ':')
		b = strconv.AppendInt(b, v, 10)
	})
	if e.Slow != nil && len(e.Slow.Chain) > 0 {
		b = append(b, `,"chain":[`...)
		for i, q := range e.Slow.Chain {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, q, 10)
		}
		b = append(b, ']')
	}
	return append(b, '}', '\n')
}

// appendString appends s as a JSON string. Kinds and notes are plain ASCII
// in practice; anything else goes through encoding/json's escaping.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			q, _ := json.Marshal(s) //lint:allow errdrop marshaling a string cannot fail
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
