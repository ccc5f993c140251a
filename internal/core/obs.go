package core

import (
	"sync"
	"time"

	"srb/internal/obs"
	"srb/internal/query"
)

// monObs holds the Monitor's bound instruments. The Monitor keeps a nil
// *monObs when uninstrumented, so every hook on the hot path is one branch;
// with a sink attached, op latencies land in per-kind histograms, and
// decision-level events (probe issued/avoided, kNN case taken, safe-region
// shrink) stream into the sink's event ring.
type monObs struct {
	fr *obs.FlightRecorder
	lg *ledger

	updSeconds *obs.Histogram
	addSeconds *obs.Histogram
	remSeconds *obs.Histogram
	regSeconds *obs.Histogram

	qSlowOps *obs.Counter

	mu  sync.Mutex // guards pub against a scrape on another goroutine
	pub obsCounts
}

// obsCounts is the copy of the monitor's counts that publish keeps for a
// scrape: Stats, the populations and the ledger's totals.
type obsCounts struct {
	Stats
	objects, queries, tracked, retired, wireBytes int64
}

// obsFamilies is the one table from the monitor's counts to the metric
// families that export them; a counted quantity exports itself by adding a
// row. Counters equal the cumulative Stats, which a snapshot carries over.
var obsFamilies = []struct {
	name, help string
	gauge      bool
	labels     []string // "key", "value" pairs
	get        func(*obsCounts) int64
}{
	{"srb_updates_total", "Client-initiated location updates processed.", false, nil, func(c *obsCounts) int64 { return c.SourceUpdates }},
	{"srb_probes_total", "Server-initiated probes issued.", false, nil, func(c *obsCounts) int64 { return c.Probes }},
	{"srb_probes_avoided_total", "Ambiguities resolved without a probe (lazy probing and reachability circle).", false, nil, func(c *obsCounts) int64 { return c.ProbesAvoided }},
	{"srb_virtual_probes_total", "Reachability-circle safe-region shrinks (virtual probes, §6.1).", false, nil, func(c *obsCounts) int64 { return c.VirtualProbes }},
	{"srb_reevaluations_total", "Incremental query reevaluations.", false, nil, func(c *obsCounts) int64 { return c.Reevaluations }},
	{"srb_full_reevaluations_total", "Reevaluations that fell back to from-scratch evaluation.", false, nil, func(c *obsCounts) int64 { return c.FullReevals }},
	{"srb_new_query_evals_total", "From-scratch evaluations of newly registered queries.", false, nil, func(c *obsCounts) int64 { return c.NewQueryEvals }},
	{"srb_safe_regions_built_total", "Full safe-region computations.", false, nil, func(c *obsCounts) int64 { return c.SafeRegionsBuilt }},
	{"srb_result_changes_total", "Result updates pushed to application servers.", false, nil, func(c *obsCounts) int64 { return c.ResultChanges }},
	{"srb_knn_case_total", "Incremental kNN reevaluations by §4.3 case taken.", false, []string{"case", "1"}, func(c *obsCounts) int64 { return c.KNNCases[0] }},
	{"srb_knn_case_total", "Incremental kNN reevaluations by §4.3 case taken.", false, []string{"case", "2"}, func(c *obsCounts) int64 { return c.KNNCases[1] }},
	{"srb_knn_case_total", "Incremental kNN reevaluations by §4.3 case taken.", false, []string{"case", "3"}, func(c *obsCounts) int64 { return c.KNNCases[2] }},
	{"srb_objects", "Registered moving objects.", true, nil, func(c *obsCounts) int64 { return c.objects }},
	{"srb_queries", "Registered continuous queries.", true, nil, func(c *obsCounts) int64 { return c.queries }},
	{"srb_query_tracked", "Queries tracked in the per-query cost ledger.", true, nil, func(c *obsCounts) int64 { return c.tracked }},
	{"srb_query_retired_total", "Ledger entries folded into the retired aggregate on deregistration.", false, nil, func(c *obsCounts) int64 { return c.retired }},
	{"srb_query_wire_bytes_total", "Estimated wire bytes attributed by the per-query ledger (probes, grants, result pushes).", false, nil, func(c *obsCounts) int64 { return c.wireBytes }},
}

// SetObs attaches an observability sink to the monitor (nil detaches). Must
// be called while no operation is in flight — in practice right after New,
// or from whatever serializes monitor access. Attaching rebinds the work
// counter families to this monitor, so of several monitors sharing one sink
// the last attached is the one /metrics reports; their histograms and
// slow-op counts merge.
func (m *Monitor) SetObs(sink *obs.Sink) {
	if sink == nil || (sink.Registry() == nil && sink.Recorder() == nil) {
		m.mobs = nil
		return
	}
	r := sink.Registry()
	o := &monObs{fr: sink.Recorder()}
	for i := range obsFamilies {
		f := &obsFamilies[i]
		read := func() int64 { o.mu.Lock(); defer o.mu.Unlock(); return f.get(&o.pub) }
		if f.gauge {
			r.GaugeFunc(f.name, f.help, func() float64 { return float64(read()) }, f.labels...)
		} else {
			r.CounterFunc(f.name, f.help, read, f.labels...)
		}
	}
	help := "Monitor operation latency by operation kind."
	o.updSeconds = r.Histogram("srb_op_seconds", help, obs.LatencyBuckets(), "op", "update")
	o.addSeconds = r.Histogram("srb_op_seconds", help, obs.LatencyBuckets(), "op", "add")
	o.remSeconds = r.Histogram("srb_op_seconds", help, obs.LatencyBuckets(), "op", "remove")
	o.regSeconds = r.Histogram("srb_op_seconds", help, obs.LatencyBuckets(), "op", "register")
	o.qSlowOps = r.Counter("srb_query_slow_ops_total", "Monitor operations at or over the slow-op threshold.")
	o.lg = newLedger(m)
	m.mobs = o
	o.publish(m)
}

// publish refreshes the copy of the monitor's counts that a scrape reads. It
// runs wherever those counts move under a sink and allocates nothing.
func (o *monObs) publish(m *Monitor) {
	o.mu.Lock()
	o.pub = obsCounts{Stats: m.stats, objects: int64(len(m.objects)), queries: int64(len(m.queries)),
		tracked: int64(len(o.lg.entries)), retired: o.lg.retiredN, wireBytes: o.lg.wireTotal}
	o.mu.Unlock()
}

// SetOpTrace sets the causal trace ID the next operations run under; the
// server event loop sets it per dispatched wire op (0 clears). The ID tags
// the operation's spans, probe/shrink instants and slow-op events, tying
// server-side work back to the client update that caused it.
func (m *Monitor) SetOpTrace(tr uint64) { m.opTrace = tr }

// obsStart snapshots the clock and the work counters at the head of an
// instrumented operation. Callers guard with `if m.mobs != nil`.
func (m *Monitor) obsStart() (time.Time, Stats) {
	// Latency instrumentation only: the timestamp never reaches results,
	// journal, snapshot or wire output.
	return time.Now(), m.stats //lint:allow wallclock latency instrumentation, never in output
}

// done closes an instrumented operation: observe its latency, publish the
// counts, record a span carrying the operation's probe/reevaluation cost,
// detect slow operations, and clear the ledger's per-op attribution context.
// kind is the op's span kind, "core.<op>".
func (o *monObs) done(m *Monitor, kind string, h *obs.Histogram, start time.Time, before Stats) {
	dur := time.Since(start) //lint:allow wallclock latency instrumentation, never in output
	h.Observe(dur.Seconds())
	d := m.stats
	o.publish(m)
	ts := start.UnixNano()
	o.fr.Record(obs.Event{TS: ts, Dur: dur.Nanoseconds(), Kind: kind, Trace: m.opTrace,
		Args: [2]int64{d.Probes - before.Probes, d.Reevaluations - before.Reevaluations}})
	if m.slowThresh > 0 && dur >= m.slowThresh {
		o.qSlowOps.Inc()
		m.slowOp(kind[len("core."):], ts, dur, d, before)
	}
	o.lg.opEnd()
}

// noteProbe records the decision-level probe event and bills it to the
// focused query.
func (m *Monitor) noteProbe(id uint64) {
	if m.mobs != nil {
		m.mobs.fr.Record(obs.Event{Kind: obs.KindCoreProbe, Trace: m.opTrace, Obj: id})
		m.mobs.lg.noteProbe(id)
	}
}

// noteProbeAvoided counts an ambiguity resolved without a real probe and
// records its event.
func (m *Monitor) noteProbeAvoided(id uint64) {
	m.stats.ProbesAvoided++
	if m.mobs != nil {
		m.mobs.fr.Record(obs.Event{Kind: obs.KindCoreProbeAvoided, Trace: m.opTrace, Obj: id})
		m.mobs.lg.noteProbeAvoided()
	}
}

// noteShrink records the safe-region shrink event of a reachability-circle
// virtual probe; the event kind carries the shrink reason.
func (m *Monitor) noteShrink(id uint64) {
	if m.mobs != nil {
		m.mobs.fr.Record(obs.Event{Kind: obs.KindCoreShrink, Trace: m.opTrace, Obj: id})
		m.mobs.lg.noteShrink(id)
	}
}

// noteReevaluate records the span of one query's incremental reevaluation,
// begun at t0, and ends the ledger's focus on that query.
func (m *Monitor) noteReevaluate(q *query.Query, t0 time.Time) {
	m.mobs.fr.Record(obs.Event{TS: t0.UnixNano(), Dur: time.Since(t0).Nanoseconds(), //lint:allow wallclock latency instrumentation, never in output
		Kind: obs.KindCoreReevaluate, Trace: m.opTrace, Query: uint64(q.ID), Args: [2]int64{int64(q.Kind)}})
	m.mobs.lg.unfocus()
}

// noteKNNCase counts which §4.3 incremental case an order-sensitive kNN
// reevaluation took (1 = leave, 2 = enter, 3 = reorder) and records its event.
func (m *Monitor) noteKNNCase(q *query.Query, c int) {
	m.stats.KNNCases[c-1]++
	if m.mobs != nil {
		m.mobs.fr.Record(obs.Event{Kind: obs.KindCoreKNNCase, Trace: m.opTrace, Query: uint64(q.ID),
			Args: [2]int64{int64(c)}})
		m.mobs.lg.noteKNNCase(q, c)
	}
}

// noteFastPath books a batch fast-path update (ApplyPlanned), whose replayed
// effect sequence advances SourceUpdates and SafeRegionsBuilt outside an
// instrumented op wrapper: the ledger books it against Unattributed, and the
// counts are published.
func (m *Monitor) noteFastPath() {
	if m.mobs != nil {
		m.mobs.lg.noteFastPath()
		m.mobs.publish(m)
	}
}
