package parallel

import (
	"sync"
	"time"

	"srb/internal/obs"
)

// pipeObs holds the pipeline's bound instruments; a nil *pipeObs (the
// default) keeps ApplyEach allocation- and syscall-free. The two phase
// histograms split a batch's wall time into the parallel plan phase and the
// serial apply phase; pub is the Stats copy a scrape reads.
type pipeObs struct {
	fr *obs.FlightRecorder

	batchSize    *obs.Histogram
	planSeconds  *obs.Histogram
	applySeconds *obs.Histogram

	mu  sync.Mutex // guards pub against a scrape on another goroutine
	pub Stats
}

// batchFamilies maps each pipeline Stats field to the counter that exports it.
var batchFamilies = []struct {
	name, help string
	get        func(Stats) int64
}{
	{"srb_batch_batches_total", "Update batches processed by the parallel pipeline.", func(s Stats) int64 { return s.Batches }},
	{"srb_batch_updates_total", "Location updates processed through batches.", func(s Stats) int64 { return s.Updates }},
	{"srb_batch_planned_total", "Updates precomputed by the parallel plan phase.", func(s Stats) int64 { return s.Planned }},
	{"srb_batch_fast_total", "Plans that validated and applied on the fast path.", func(s Stats) int64 { return s.Fast }},
	{"srb_batch_fallback_total", "Updates that took the sequential fallback path.", func(s Stats) int64 { return s.Fallback }},
}

// SetObs attaches an observability sink to the pipeline (nil detaches). Like
// Apply, it must be serialized with every other pipeline call. Attaching
// rebinds the counter families to this pipeline's cumulative Stats.
func (p *Pipeline) SetObs(sink *obs.Sink) {
	if sink == nil || (sink.Registry() == nil && sink.Recorder() == nil) {
		p.obs = nil
		return
	}
	r := sink.Registry()
	o := &pipeObs{fr: sink.Recorder(), pub: p.stats}
	read := func() Stats { o.mu.Lock(); defer o.mu.Unlock(); return o.pub }
	for i := range batchFamilies {
		f := &batchFamilies[i]
		r.CounterFunc(f.name, f.help, func() int64 { return f.get(read()) })
	}
	r.GaugeFunc("srb_batch_fastpath_fraction", "Cumulative fraction of batched updates applied via the fast path.", func() float64 {
		s := read()
		return float64(s.Fast) / float64(max(s.Updates, 1))
	})
	o.batchSize = r.Histogram("srb_batch_size", "Updates per batch.", obs.SizeBuckets())
	help := "Batch phase latency: the parallel plan phase and the serial apply phase."
	o.planSeconds = r.Histogram("srb_batch_phase_seconds", help, obs.LatencyBuckets(), "phase", "plan")
	o.applySeconds = r.Histogram("srb_batch_phase_seconds", help, obs.LatencyBuckets(), "phase", "apply")
	p.obs = o
}

// done closes one instrumented batch: publish the Stats, observe the phase
// latencies, and record plan/apply spans sized by the batch's outcome.
func (o *pipeObs) done(p *Pipeline, before Stats, t0, planDone, applyDone time.Time) {
	d := p.stats
	o.mu.Lock()
	o.pub = d
	o.mu.Unlock()
	o.batchSize.Observe(float64(d.Updates - before.Updates))
	o.planSeconds.Observe(planDone.Sub(t0).Seconds())
	o.applySeconds.Observe(applyDone.Sub(planDone).Seconds())
	o.fr.Record(obs.Event{TS: t0.UnixNano(), Dur: planDone.Sub(t0).Nanoseconds(), Kind: obs.KindBatchPlan,
		Args: [2]int64{d.Updates - before.Updates, d.Planned - before.Planned}})
	o.fr.Record(obs.Event{TS: planDone.UnixNano(), Dur: applyDone.Sub(planDone).Nanoseconds(), Kind: obs.KindBatchApply,
		Args: [2]int64{d.Fast - before.Fast, d.Fallback - before.Fallback}})
}
