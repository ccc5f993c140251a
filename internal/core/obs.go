package core

import (
	"strconv"
	"time"

	"srb/internal/obs"
	"srb/internal/query"
)

// monObs holds the Monitor's bound instruments. The Monitor keeps a nil
// *monObs when uninstrumented, so every hook on the hot path is one branch;
// with a sink attached, counters mirror the Stats work counters (folded in
// as per-operation deltas), op latencies land in per-kind histograms, and
// decision-level events (probe issued/avoided, kNN case taken, safe-region
// shrink) stream into the sink's event ring.
type monObs struct {
	fr *obs.FlightRecorder
	lg *ledger

	updates       *obs.Counter
	probes        *obs.Counter
	probesAvoided *obs.Counter
	virtualProbes *obs.Counter
	reevals       *obs.Counter
	fullReevals   *obs.Counter
	newQueryEvals *obs.Counter
	safeRegions   *obs.Counter
	resultChanges *obs.Counter
	knnCase       [3]*obs.Counter

	updSeconds *obs.Histogram
	addSeconds *obs.Histogram
	remSeconds *obs.Histogram
	regSeconds *obs.Histogram

	objects *obs.Gauge
	queries *obs.Gauge

	qTracked   *obs.Gauge
	qRetired   *obs.Counter
	qWireBytes *obs.Counter
	qSlowOps   *obs.Counter
}

// SetObs attaches an observability sink to the monitor (nil detaches). Must
// be called while no operation is in flight — in practice right after New,
// or from whatever serializes monitor access. Instrument registration is
// idempotent per registry, so several monitors may share one sink only if
// they are alternatives, not concurrent (their counters would merge).
func (m *Monitor) SetObs(sink *obs.Sink) {
	if sink == nil || (sink.Registry() == nil && sink.Recorder() == nil) {
		m.mobs = nil
		return
	}
	r := sink.Registry()
	o := &monObs{fr: sink.Recorder()}
	o.updates = r.Counter("srb_updates_total", "Client-initiated location updates processed.")
	o.probes = r.Counter("srb_probes_total", "Server-initiated probes issued.")
	o.probesAvoided = r.Counter("srb_probes_avoided_total", "Ambiguities resolved without a probe (lazy probing and reachability circle).")
	o.virtualProbes = r.Counter("srb_virtual_probes_total", "Reachability-circle safe-region shrinks (virtual probes, §6.1).")
	o.reevals = r.Counter("srb_reevaluations_total", "Incremental query reevaluations.")
	o.fullReevals = r.Counter("srb_full_reevaluations_total", "Reevaluations that fell back to from-scratch evaluation.")
	o.newQueryEvals = r.Counter("srb_new_query_evals_total", "From-scratch evaluations of newly registered queries.")
	o.safeRegions = r.Counter("srb_safe_regions_built_total", "Full safe-region computations.")
	o.resultChanges = r.Counter("srb_result_changes_total", "Result updates pushed to application servers.")
	for i := range o.knnCase {
		o.knnCase[i] = r.Counter("srb_knn_case_total", "Incremental kNN reevaluations by §4.3 case taken.",
			"case", strconv.Itoa(i+1))
	}
	help := "Monitor operation latency by operation kind."
	o.updSeconds = r.Histogram("srb_op_seconds", help, obs.LatencyBuckets(), "op", "update")
	o.addSeconds = r.Histogram("srb_op_seconds", help, obs.LatencyBuckets(), "op", "add")
	o.remSeconds = r.Histogram("srb_op_seconds", help, obs.LatencyBuckets(), "op", "remove")
	o.regSeconds = r.Histogram("srb_op_seconds", help, obs.LatencyBuckets(), "op", "register")
	o.objects = r.Gauge("srb_objects", "Registered moving objects.")
	o.queries = r.Gauge("srb_queries", "Registered continuous queries.")
	o.qTracked = r.Gauge("srb_query_tracked", "Queries tracked in the per-query cost ledger.")
	o.qRetired = r.Counter("srb_query_retired_total", "Ledger entries folded into the retired aggregate on deregistration.")
	o.qWireBytes = r.Counter("srb_query_wire_bytes_total", "Estimated wire bytes attributed by the per-query ledger (probes, grants, result pushes).")
	o.qSlowOps = r.Counter("srb_query_slow_ops_total", "Monitor operations at or over the slow-op threshold.")
	o.lg = newLedger(m)
	m.mobs = o
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

// done closes an instrumented operation: observe its latency, fold the Stats
// deltas into the registry counters, refresh the population gauges, record a
// span carrying the operation's probe/reevaluation cost, detect slow
// operations, and clear the ledger's per-op attribution context. kind is the
// op's span kind, "core.<op>".
func (o *monObs) done(m *Monitor, kind string, h *obs.Histogram, start time.Time, before Stats) {
	dur := time.Since(start) //lint:allow wallclock latency instrumentation, never in output
	h.Observe(dur.Seconds())
	d := m.stats
	o.updates.Add(d.SourceUpdates - before.SourceUpdates)
	o.probes.Add(d.Probes - before.Probes)
	o.probesAvoided.Add(d.ProbesAvoided - before.ProbesAvoided)
	o.virtualProbes.Add(d.VirtualProbes - before.VirtualProbes)
	o.reevals.Add(d.Reevaluations - before.Reevaluations)
	o.fullReevals.Add(d.FullReevals - before.FullReevals)
	o.newQueryEvals.Add(d.NewQueryEvals - before.NewQueryEvals)
	o.safeRegions.Add(d.SafeRegionsBuilt - before.SafeRegionsBuilt)
	o.resultChanges.Add(d.ResultChanges - before.ResultChanges)
	o.objects.Set(float64(len(m.objects)))
	o.queries.Set(float64(len(m.queries)))
	o.qTracked.Set(float64(len(o.lg.entries)))
	o.qWireBytes.Add(o.lg.wireTotal - o.lg.wireFolded)
	o.lg.wireFolded = o.lg.wireTotal
	o.qRetired.Add(o.lg.retiredN - o.lg.retiredFolded)
	o.lg.retiredFolded = o.lg.retiredN
	ts := start.UnixNano()
	o.fr.Record(obs.Event{TS: ts, Dur: dur.Nanoseconds(), Kind: kind, Trace: m.opTrace,
		Args: [2]int64{d.Probes - before.Probes, d.Reevaluations - before.Reevaluations}})
	if m.slowThresh > 0 && dur >= m.slowThresh {
		o.qSlowOps.Inc()
		m.slowOp(kind[len("core."):], ts, dur, d, before)
	}
	o.lg.opEnd()
}

// noteProbe records the decision-level probe event (the counter is folded in
// at operation end from the Stats delta) and bills it to the focused query.
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

// noteKNNCase records which §4.3 incremental case an order-sensitive kNN
// reevaluation took (1 = leave, 2 = enter, 3 = reorder).
func (m *Monitor) noteKNNCase(q *query.Query, c int) {
	if m.mobs != nil {
		m.mobs.knnCase[c-1].Inc()
		m.mobs.fr.Record(obs.Event{Kind: obs.KindCoreKNNCase, Trace: m.opTrace, Query: uint64(q.ID),
			Args: [2]int64{int64(c)}})
		m.mobs.lg.noteKNNCase(q, c)
	}
}

// noteFastPath counts a batch fast-path update (ApplyPlanned): the replayed
// effect sequence advances SourceUpdates and SafeRegionsBuilt without going
// through an instrumented op wrapper, so the two counters are bumped
// directly; population is unchanged and no probes or reevaluations happen on
// this path by construction. The ledger books the same sequence (plus the
// single region grant) against its Unattributed bucket.
func (m *Monitor) noteFastPath() {
	if m.mobs != nil {
		m.mobs.updates.Inc()
		m.mobs.safeRegions.Inc()
		m.mobs.lg.noteFastPath()
	}
}
