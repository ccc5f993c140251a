package parallel

import (
	"time"

	"srb/internal/obs"
)

// pipeObs holds the pipeline's bound instruments; a nil *pipeObs (the
// default) keeps ApplyEach allocation- and syscall-free. Counters fold in the
// Stats deltas per batch; the two phase histograms split a batch's wall time
// into the parallel plan phase and the serial apply phase; the fraction gauge
// tracks the cumulative share of updates that validated onto the fast path.
type pipeObs struct {
	fr *obs.FlightRecorder

	batches  *obs.Counter
	updates  *obs.Counter
	planned  *obs.Counter
	fast     *obs.Counter
	fallback *obs.Counter

	batchSize    *obs.Histogram
	planSeconds  *obs.Histogram
	applySeconds *obs.Histogram

	fastFrac *obs.Gauge
}

// SetObs attaches an observability sink to the pipeline (nil detaches). Like
// Apply, it must be serialized with every other pipeline call.
func (p *Pipeline) SetObs(sink *obs.Sink) {
	if sink == nil || (sink.Registry() == nil && sink.Recorder() == nil) {
		p.obs = nil
		return
	}
	r := sink.Registry()
	o := &pipeObs{fr: sink.Recorder()}
	o.batches = r.Counter("srb_batch_batches_total", "Update batches processed by the parallel pipeline.")
	o.updates = r.Counter("srb_batch_updates_total", "Location updates processed through batches.")
	o.planned = r.Counter("srb_batch_planned_total", "Updates precomputed by the parallel plan phase.")
	o.fast = r.Counter("srb_batch_fast_total", "Plans that validated and applied on the fast path.")
	o.fallback = r.Counter("srb_batch_fallback_total", "Updates that took the sequential fallback path.")
	o.batchSize = r.Histogram("srb_batch_size", "Updates per batch.", obs.SizeBuckets())
	help := "Batch phase latency: the parallel plan phase and the serial apply phase."
	o.planSeconds = r.Histogram("srb_batch_phase_seconds", help, obs.LatencyBuckets(), "phase", "plan")
	o.applySeconds = r.Histogram("srb_batch_phase_seconds", help, obs.LatencyBuckets(), "phase", "apply")
	o.fastFrac = r.Gauge("srb_batch_fastpath_fraction", "Cumulative fraction of batched updates applied via the fast path.")
	p.obs = o
}

// done closes one instrumented batch: phase latencies, Stats deltas, the
// cumulative fast-path fraction, and plan/apply spans sized by the batch's
// outcome.
func (o *pipeObs) done(p *Pipeline, before Stats, t0, planDone, applyDone time.Time) {
	d := p.stats
	o.batches.Add(d.Batches - before.Batches)
	o.updates.Add(d.Updates - before.Updates)
	o.planned.Add(d.Planned - before.Planned)
	o.fast.Add(d.Fast - before.Fast)
	o.fallback.Add(d.Fallback - before.Fallback)
	o.batchSize.Observe(float64(d.Updates - before.Updates))
	o.planSeconds.Observe(planDone.Sub(t0).Seconds())
	o.applySeconds.Observe(applyDone.Sub(planDone).Seconds())
	if d.Updates > 0 {
		o.fastFrac.Set(float64(d.Fast) / float64(d.Updates))
	}
	o.fr.Record(obs.Event{TS: t0.UnixNano(), Dur: planDone.Sub(t0).Nanoseconds(), Kind: obs.KindBatchPlan,
		Args: [2]int64{d.Updates - before.Updates, d.Planned - before.Planned}})
	o.fr.Record(obs.Event{TS: planDone.UnixNano(), Dur: applyDone.Sub(planDone).Nanoseconds(), Kind: obs.KindBatchApply,
		Args: [2]int64{d.Fast - before.Fast, d.Fallback - before.Fallback}})
}
