package srb

import (
	"io"
	"sync"

	"srb/internal/parallel"
)

// ObjectUpdate is one location report in a batch: object ID and its new
// exact position.
type ObjectUpdate = parallel.Update

// BatchStats counts the batch pipeline's partitioning effectiveness: how
// many updates were planned on the worker pool, how many applied on the fast
// path, and how many fell back to the sequential path.
type BatchStats = parallel.Stats

// ParallelMonitor wraps a Monitor with a mutex so it can be shared by
// multiple goroutines (e.g. one per client connection). Every operation
// serializes, preserving the framework's sequential-processing model. For a
// channel-based alternative see internal/remote, which serializes through an
// event loop instead.
//
// UpdateBatch additionally moves the CPU hot spot — safe-region geometry —
// of conflict-free updates onto a bounded worker pool while keeping the
// outcome bit-identical to processing the batch sequentially in ascending
// object-ID order (see internal/parallel for the contract and DESIGN.md §9
// for the conflict-partition rule).
type ParallelMonitor struct {
	mu   sync.Mutex
	mon  *Monitor
	pipe *parallel.Pipeline
}

// NewParallelMonitor creates a thread-safe monitoring server whose batch
// update path plans conflict-free updates on a pool of the given size
// (workers <= 0 selects GOMAXPROCS); workers run only inside UpdateBatch,
// so a caller that never batches starts none. The prober and onUpdate
// callbacks are invoked while the internal lock is held: they must not call
// back into the monitor.
func NewParallelMonitor(opt Options, workers int, prober Prober, onUpdate func(ResultUpdate)) *ParallelMonitor {
	mon := NewMonitor(opt, prober, onUpdate)
	return &ParallelMonitor{mon: mon, pipe: parallel.New(mon, workers)}
}

// UpdateBatch processes a batch of location updates, equivalent to calling
// Update for every entry in ascending object-ID order (input order among
// duplicate IDs), and returns the concatenated safe-region refreshes in that
// order. Conflict-free updates are precomputed concurrently; the conflicting
// residue is serialized.
func (c *ParallelMonitor) UpdateBatch(batch []ObjectUpdate) []SafeRegionUpdate {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pipe.Apply(batch)
}

// BatchStats returns the pipeline's partitioning counters.
func (c *ParallelMonitor) BatchStats() BatchStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pipe.Stats()
}

// SetTime advances the logical clock.
func (c *ParallelMonitor) SetTime(t float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mon.SetTime(t)
}

// AddObject registers a moving object.
func (c *ParallelMonitor) AddObject(id uint64, p Point) []SafeRegionUpdate {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mon.AddObject(id, p)
}

// RemoveObject deregisters an object.
func (c *ParallelMonitor) RemoveObject(id uint64) []SafeRegionUpdate {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mon.RemoveObject(id)
}

// Update processes a single source-initiated location update.
func (c *ParallelMonitor) Update(id uint64, p Point) []SafeRegionUpdate {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mon.Update(id, p)
}

// RegisterRange registers a continuous range query.
func (c *ParallelMonitor) RegisterRange(id QueryID, rect Rect) ([]uint64, []SafeRegionUpdate, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mon.RegisterRange(id, rect)
}

// RegisterKNN registers a continuous kNN query.
func (c *ParallelMonitor) RegisterKNN(id QueryID, pt Point, k int, ordered bool) ([]uint64, []SafeRegionUpdate, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mon.RegisterKNN(id, pt, k, ordered)
}

// RegisterCount registers an aggregate COUNT range query.
func (c *ParallelMonitor) RegisterCount(id QueryID, rect Rect) (int, []SafeRegionUpdate, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mon.RegisterCount(id, rect)
}

// RegisterWithinDistance registers a circular range query.
func (c *ParallelMonitor) RegisterWithinDistance(id QueryID, center Point, radius float64) ([]uint64, []SafeRegionUpdate, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mon.RegisterWithinDistance(id, center, radius)
}

// Deregister removes a query.
func (c *ParallelMonitor) Deregister(id QueryID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mon.Deregister(id)
}

// Results returns a query's current results.
func (c *ParallelMonitor) Results(id QueryID) ([]uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mon.Results(id)
}

// SafeRegion returns an object's current safe region.
func (c *ParallelMonitor) SafeRegion(id uint64) (Rect, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mon.SafeRegion(id)
}

// Stats returns the server's work counters.
func (c *ParallelMonitor) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mon.Stats()
}

// NumObjects returns the number of registered objects.
func (c *ParallelMonitor) NumObjects() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mon.NumObjects()
}

// NumQueries returns the number of registered queries.
func (c *ParallelMonitor) NumQueries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mon.NumQueries()
}

// SaveSnapshot serializes the monitor's durable state.
func (c *ParallelMonitor) SaveSnapshot(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mon.SaveSnapshot(w)
}

// LoadSnapshot restores state into an empty monitor.
func (c *ParallelMonitor) LoadSnapshot(r io.Reader) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mon.LoadSnapshot(r)
}
