package main

import "math"

// The kNN workload cannot use one position fix per time unit: a burst of
// clients that have all left their regions means every update of the burst is
// evaluated against neighbours whose regions are already stale, and the
// program's kNN maintenance is exact only when each client reports the moment
// it crosses its boundary (Section 3's assumption, and what internal/sim
// does). So on that workload clients report at their exact exit times, in time
// order, and probes are answered with the position at that instant.

// leg is one constant-velocity stretch of a trajectory: the position at
// t in [t0, t1] is start + (t - t0)·v.
type leg struct {
	t0, t1   float64
	start, v Point
}

func (l leg) at(t float64) Point {
	dt := t - l.t0
	return Point{X: l.start.X + dt*l.v.X, Y: l.start.Y + dt*l.v.Y}
}

// exitEvent is a client's scheduled crossing of its safe region's boundary.
type exitEvent struct {
	t   float64
	id  uint32
	gen uint32 // the grant it was computed for; a newer grant voids it
}

// exitHeap is a binary min-heap ordered by time, then ID.
type exitHeap []exitEvent

func (h exitHeap) less(i, j int) bool {
	if h[i].t < h[j].t {
		return true
	}
	return !(h[j].t < h[i].t) && h[i].id < h[j].id
}

func (h *exitHeap) push(e exitEvent) {
	*h = append(*h, e)
	a := *h
	for i := len(a) - 1; i > 0; {
		parent := (i - 1) / 2
		if !a.less(i, parent) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
}

func (h *exitHeap) pop() exitEvent {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	for i := 0; ; {
		l, r, min := 2*i+1, 2*i+2, i
		if l < last && a.less(l, min) {
			min = l
		}
		if r < last && a.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		a[i], a[min] = a[min], a[i]
		i = min
	}
	*h = a
	return top
}

// exitState is the event-driven half of a world.
type exitState struct {
	legs    [][]leg
	cur     []int32 // leg each object is on; time only moves forward
	gen     []uint32
	heap    exitHeap
	now     float64
	horizon float64
	// gap is the least time between a grant and the client's next report.
	// Two near-tied neighbours of a kNN query are each handed a sliver of a
	// region, and a client on a grid line one that ends where it stands; the
	// gap lets them move apart instead of reporting without end. internal/sim
	// bounds its clients the same way (ClientCheckEvery).
	gap float64
}

func newExitState(legs [][]leg, horizon, gap float64) *exitState {
	return &exitState{
		gap:     gap,
		legs:    legs,
		cur:     make([]int32, len(legs)),
		gen:     make([]uint32, len(legs)),
		heap:    make(exitHeap, 0, 2*len(legs)),
		horizon: horizon,
	}
}

// posAt returns object id's position at time t, which must not precede an
// earlier query for the same object.
func (x *exitState) posAt(id uint64, t float64) Point {
	legs := x.legs[id]
	k := x.cur[id]
	for t > legs[k].t1 && int(k) < len(legs)-1 {
		k++
	}
	x.cur[id] = k
	return legs[k].at(t)
}

// schedule computes when object id, holding region r since now, next crosses
// r's boundary, and queues the report.
func (x *exitState) schedule(id uint64, r Rect) {
	x.gen[id]++
	from := x.now
	legs := x.legs[id]
	for k := int(x.cur[id]); k < len(legs); k++ {
		l := legs[k]
		t := math.Max(from, l.t0)
		if t >= x.horizon {
			return
		}
		p := l.at(t)
		if !r.Contains(p) {
			x.queue(id, t)
			return
		}
		dt := math.Inf(1)
		if l.v.X > 0 {
			dt = math.Min(dt, (r.MaxX-p.X)/l.v.X)
		} else if l.v.X < 0 {
			dt = math.Min(dt, (r.MinX-p.X)/l.v.X)
		}
		if l.v.Y > 0 {
			dt = math.Min(dt, (r.MaxY-p.Y)/l.v.Y)
		} else if l.v.Y < 0 {
			dt = math.Min(dt, (r.MinY-p.Y)/l.v.Y)
		}
		if te := t + math.Max(dt, 0); te <= l.t1 {
			x.queue(id, te)
			return
		}
	}
}

func (x *exitState) queue(id uint64, te float64) {
	if te < x.now+x.gap {
		te = x.now + x.gap
	}
	if te < x.horizon {
		x.heap.push(exitEvent{t: te, id: uint32(id), gen: x.gen[id]})
	}
}

// next pops the next valid report before the given time.
func (x *exitState) next(before float64) (uint64, bool) {
	for len(x.heap) > 0 && x.heap[0].t < before {
		e := x.heap.pop()
		if e.gen != x.gen[e.id] {
			continue
		}
		x.now = e.t
		return uint64(e.id), true
	}
	return 0, false
}
