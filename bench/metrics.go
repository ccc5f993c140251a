package main

import (
	"fmt"
	"io"
	"sort"
)

// endToEndNames lists the ten end-to-end metrics in reporting order.
var endToEndNames = []string{
	"setup_s", "updates_per_s", "cpu_us_per_update", "ack_p50_us", "ack_p99_us",
	"register_p50_us", "comm_cost", "accuracy", "heap_mb", "allocs_per_update",
}

var endToEndUnits = map[string]string{
	"setup_s": "s", "updates_per_s": "1/s", "cpu_us_per_update": "us", "ack_p50_us": "us",
	"ack_p99_us": "us", "register_p50_us": "us", "comm_cost": "cost", "accuracy": "fraction",
	"heap_mb": "MB", "allocs_per_update": "count",
}

// windowValues gathers one value per timed window of every repetition.
func windowValues(reps []*repResult, value func(w window) float64) []float64 {
	var out []float64
	for _, r := range reps {
		for _, w := range r.windows {
			if w.updates > 0 {
				out = append(out, value(w))
			}
		}
	}
	return out
}

// repRates returns each repetition's own quiet update rate.
func repRates(reps []*repResult) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = 1e9 / quiet(windowValues([]*repResult{r}, wallPerUpdate))
	}
	return out
}

func wallPerUpdate(w window) float64 { return float64(w.wallNs) / float64(w.updates) }
func cpuPerUpdate(w window) float64  { return float64(w.cpuNs) / float64(w.updates) }

// quiet returns the first quartile of per-window (or per-chunk, or
// per-repetition) times. Other tenants slow this box down by 10-30 % for
// seconds to minutes at a time and never speed it up, so the noise in a time
// is one-sided: over ten runs the median of some 140 windows moved by 7.6 %
// of itself, their first quartile by 4 %, and the quartile still ignores a
// single lucky window. It sits a little below the typical window, by the same
// amount on every commit.
func quiet(times []float64) float64 { return quantile(times, 0.25) }

// endToEnd folds the untraced repetitions into the ten end-to-end metrics. A
// count is summed over the repetitions. A time is measured per window (per
// update, or as a percentile of the window's own acks) and the metric is the
// quiet value over all windows of all repetitions.
func (s *runSummary) endToEnd() *result {
	var setup, heap []float64
	var updates, windowUpdates, probes, pairs, pairsOK int64
	var allocs uint64
	var units float64
	res := &result{Metrics: map[string]metric{}}
	for _, r := range s.reps {
		setup = append(setup, r.setupSec)
		heap = append(heap, r.heapMB)
		updates += r.updates + r.sweepUpdates
		windowUpdates += r.updates
		allocs += r.allocs
		probes += r.probes
		units += r.units * float64(r.clients)
		pairs += r.pairs
		pairsOK += r.pairsOK
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	v := map[string]float64{
		"setup_s":           quiet(setup),
		"updates_per_s":     1e9 / quiet(windowValues(s.reps, wallPerUpdate)),
		"cpu_us_per_update": quiet(windowValues(s.reps, cpuPerUpdate)) / 1e3,
		"ack_p50_us":        quiet(windowValues(s.reps, func(w window) float64 { return w.ackP50 })),
		"ack_p99_us":        quiet(windowValues(s.reps, func(w window) float64 { return w.ackP99 })),
		"register_p50_us":   quiet(s.pool.regP50),
		"heap_mb":           median(heap),
	}
	if windowUpdates > 0 {
		v["allocs_per_update"] = float64(allocs) / float64(windowUpdates)
	}
	if units > 0 {
		v["comm_cost"] = (costUpdate*float64(updates) + costProbe*float64(probes)) / units
	}
	if pairs > 0 {
		v["accuracy"] = float64(pairsOK) / float64(pairs)
	}
	for _, name := range endToEndNames {
		res.Metrics[name] = metric{Value: v[name], Unit: endToEndUnits[name]}
	}
	// Every workload checks results against the oracle, so anything short of
	// full accuracy, like any failed operation, fails the run.
	res.Correct = res.Failed == 0 && pairs > 0 && pairsOK == pairs && res.Attempted > 0
	s.e2e = v
	return res
}

// report writes the human-readable account of a run to w (standard error):
// the metrics, the counts that must repeat exactly, and the two diagnostics
// that tell a noisy machine from a changed program.
func (s *runSummary) report(w io.Writer, res *result) {
	e2e := s.e2e
	rates := repRates(s.reps)
	var updates, probes, nearTies int64
	var hash uint64 = fnvOffset
	for i, r := range s.reps {
		fmt.Fprintf(w, "  rep %d: setup %.3fs  %.0f updates/s  heap %.1f MB  %d updates %d probes\n",
			i, r.setupSec, rates[i], r.heapMB, r.updates+r.sweepUpdates, r.probes)
		updates += r.updates + r.sweepUpdates
		probes += r.probes
		nearTies += r.nearTies
		hash = fnv(hash, r.hash)
	}
	fmt.Fprintf(w, "workload %s: %d repetitions, %d windows, %d ack samples, %d register chunks\n",
		s.p.name, len(s.reps), len(windowValues(s.reps, wallPerUpdate)), s.pool.acks, len(s.pool.regP50))
	for _, name := range endToEndNames {
		fmt.Fprintf(w, "  %-20s %14.4f %s\n", name, e2e[name], endToEndUnits[name])
	}
	fmt.Fprintf(w, "  attempted %d failed %d updates %d probes %d near_ties %d results_hash %016x\n",
		res.Attempted, res.Failed, updates, probes, nearTies, hash)
	fmt.Fprintf(w, "  harness.rep_spread %.4f harness.calib_ns %.0f\n", spread(rates), s.calib)
	if len(res.Metrics) > len(endToEndNames) {
		names := make([]string, 0, len(res.Metrics))
		for name := range res.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "  %-36s %16.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
		}
	}
}
