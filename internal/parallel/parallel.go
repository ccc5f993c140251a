// Package parallel implements the batch update pipeline over the
// core Monitor: a tick's location updates are partitioned — via the grid
// query index — into a conflict-free group (movements touching no quarantine
// area and owned by objects in no result) and a conflicting residue. The
// conflict-free group's work, dominated by the Section 5 safe-region
// geometry, is precomputed on a bounded worker pool; the residue and all
// state mutation run serially in deterministic ascending object-ID order.
//
// The determinism contract: Pipeline.Apply(batch) leaves the monitor in a
// state bit-identical to calling Monitor.Update for every entry in ascending
// object-ID order (input order among duplicate IDs), returns the identical
// concatenated safe-region refreshes, publishes the identical result
// updates, and advances Stats identically. The fast path is only taken when
// core.ApplyPlanned can prove the precomputed geometry still matches, so the
// contract holds by construction; differential_test.go enforces it against
// the sequential monitor, metamorphic_test.go against the brute-force
// oracle in internal/exact.
package parallel

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"srb/internal/core"
	"srb/internal/geom"
)

// Update is one location report in a batch: object id and its new exact
// position.
type Update struct {
	ID  uint64
	Loc geom.Point
}

// Stats counts the pipeline's partitioning effectiveness. Planned/Fast tell
// how much of the workload escaped the serial path; Fallback counts updates
// that took the sequential path (never planned, plan invalidated by an
// earlier conflicting update, or duplicate IDs within one batch).
type Stats struct {
	Batches  int64
	Updates  int64
	Planned  int64 // updates planned by the parallel phase
	Fast     int64 // plans that validated and applied on the fast path
	Fallback int64 // updates applied through the sequential path
}

// Pipeline batches location updates into a core Monitor. It is not safe for
// concurrent use; callers serialize Apply with every other monitor operation
// (srb.ParallelMonitor does so with a mutex, internal/remote with its
// event loop).
type Pipeline struct {
	mon     *core.Monitor
	workers int
	stats   Stats
	obs     *pipeObs
}

// New creates a pipeline over mon with the given worker-pool size; workers
// <= 0 selects GOMAXPROCS.
func New(mon *core.Monitor, workers int) *Pipeline {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pipeline{mon: mon, workers: workers}
}

// Workers returns the worker-pool size.
func (p *Pipeline) Workers() int { return p.workers }

// Stats returns the pipeline's partitioning counters.
func (p *Pipeline) Stats() Stats { return p.stats }

// Monitor returns the wrapped monitor.
func (p *Pipeline) Monitor() *core.Monitor { return p.mon }

// Apply processes a batch of location updates, equivalent to calling
// Monitor.Update for every entry in ascending object-ID order, and returns
// the concatenated safe-region refreshes in that order.
//
//srb:hotpath
func (p *Pipeline) Apply(batch []Update) []core.SafeRegionUpdate {
	var out []core.SafeRegionUpdate
	p.ApplyEach(batch, func(_ int, ups []core.SafeRegionUpdate) {
		out = append(out, ups...)
	})
	return out
}

// ApplyEach processes a batch like Apply but hands each update's safe-region
// refreshes to emit individually, in application order, together with the
// update's index in the input batch (so callers can route refreshes back to
// the connection that reported the update).
//
//srb:hotpath
func (p *Pipeline) ApplyEach(batch []Update, emit func(i int, ups []core.SafeRegionUpdate)) {
	p.ApplyEachCtx(batch, nil, emit)
}

// ApplyEachCtx is ApplyEach with a per-update context hook: before is invoked
// (when non-nil) immediately before each update's serial application, in
// application order, with the update's index in the input batch. Callers use
// it to install per-update context on the monitor — e.g. the causal trace ID
// of the client frame that carried the update — before the mutation that
// context should tag. The parallel planning phase is read-only and emits no
// events, so a serial-phase hook covers every attributed effect.
//
//srb:hotpath
func (p *Pipeline) ApplyEachCtx(batch []Update, before func(i int), emit func(i int, ups []core.SafeRegionUpdate)) {
	n := len(batch)
	if n == 0 {
		return
	}
	var t0 time.Time
	var obsBefore Stats
	if p.obs != nil {
		t0 = time.Now() //lint:allow wallclock latency instrumentation, never in output
		obsBefore = p.stats
	}
	p.stats.Batches++
	p.stats.Updates += int64(n)

	// Application order: ascending object ID, stable among duplicates. The
	// object ID is the deterministic tie-break the contract is defined over.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return batch[order[a]].ID < batch[order[b]].ID })

	// An object reporting several times in one batch is inherently
	// order-dependent (each update's plan would start from the previous one's
	// outcome); route all its updates to the serial path.
	plannable := make([]bool, n)
	for k := range order {
		i := order[k]
		dup := (k > 0 && batch[order[k-1]].ID == batch[i].ID) ||
			(k+1 < n && batch[order[k+1]].ID == batch[i].ID)
		plannable[i] = !dup
	}

	// Phase 1 — parallel, read-only: precompute the conflict-free updates'
	// safe-region geometry on the worker pool.
	plans := make([]core.PlannedUpdate, n)
	planned := make([]bool, n)
	plan := func(i int) {
		if plannable[i] {
			plans[i], planned[i] = p.mon.PlanUpdate(batch[i].ID, batch[i].Loc)
		}
	}
	if p.workers > 1 && n > 1 {
		var next int64
		var wg sync.WaitGroup
		for w := 0; w < p.workers && w < n; w++ {
			wg.Add(1)
			// Counter-gated exit: the loop is bounded by n (each worker claims
			// strictly increasing indices), which goroleak cannot prove.
			go func() { //lint:allow goroleak exit is counter-gated and bounded by n; workers cannot outlive Run
				defer wg.Done()
				for {
					i := int(atomic.AddInt64(&next, 1)) - 1
					if i >= n {
						return
					}
					plan(i)
				}
			}()
		}
		wg.Wait()
	} else {
		for i := 0; i < n; i++ {
			plan(i)
		}
	}

	var planDone time.Time
	if p.obs != nil {
		planDone = time.Now() //lint:allow wallclock latency instrumentation, never in output
	}

	// Phase 2 — serial, in application order: fast-apply still-valid plans,
	// fall back to the sequential path for the conflicting residue.
	for _, i := range order {
		if before != nil {
			before(i)
		}
		if planned[i] {
			p.stats.Planned++
			if ups, ok := p.mon.ApplyPlanned(&plans[i]); ok {
				p.stats.Fast++
				emit(i, ups)
				continue
			}
		}
		p.stats.Fallback++
		emit(i, p.mon.Update(batch[i].ID, batch[i].Loc))
	}
	if p.obs != nil {
		p.obs.done(p, obsBefore, t0, planDone, time.Now()) //lint:allow wallclock latency instrumentation, never in output
	}
}
