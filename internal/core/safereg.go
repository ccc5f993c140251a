package core

import (
	"srb/internal/geom"
	"srb/internal/query"
	"srb/internal/saferegion"
)

// maxRelevantForExpansion caps the number of relevant queries under which the
// adaptive cell expansion of Section 7.4 stays active.
const maxRelevantForExpansion = 4

// objective returns the rectangle-scoring objective for safe-region
// optimization: the exact Theorem 5.1 exit integral (see geom.MeanExitChord
// for why the paper's perimeter shortcut misbehaves for off-center objects),
// directionally weighted per Section 6.2 when the steady-movement enhancement
// is enabled and the object has a meaningful heading.
func (m *Monitor) objective(st *objectState) geom.Objective {
	if m.opt.Steadiness > 0 && !st.prevLoc.Eq(st.lastLoc) {
		return geom.WeightedExitObjective(st.prevLoc, st.lastLoc, m.opt.Steadiness)
	}
	return geom.ExitObjective(st.lastLoc)
}

// relevantQueriesAt selects the queries constraining a safe region around p
// together with the cell-neighborhood cap the region may span. Adaptive cell
// (Section 7.4): expand the safe-region cap to neighboring cells only while
// the local query load stays low — a wide cap removes pure cell-crossing
// updates in sparse areas, but in dense areas every extra relevant query
// intersects another constraint into the region and shrinks it instead.
// Read-only.
func (m *Monitor) relevantQueriesAt(p geom.Point) ([]*query.Query, geom.Rect) {
	r := m.opt.CellNeighborhood
	relevant := m.grid.AtNeighborhood(p, r)
	for r > 0 && len(relevant) > maxRelevantForExpansion {
		r--
		relevant = m.grid.AtNeighborhood(p, r)
	}
	return relevant, m.grid.NeighborhoodRect(p, r)
}

// safeRegionFromRelevant computes the maximal safe region of st at st.lastLoc
// against the given relevant queries (Section 5): the intersection of the
// per-query regions, with all range queries whose quarantine excludes the
// object handled in one batch pass (Section 5.3) unless disabled. It is pure
// with respect to monitor state, which lets the batch planner (batch.go) run
// it concurrently on a worker pool; for objects that are a result of some
// relevant query it additionally reads the neighbor objects' representations.
func (m *Monitor) safeRegionFromRelevant(st *objectState, relevant []*query.Query, cell geom.Rect) geom.Rect {
	p := st.lastLoc
	obj := m.objective(st)
	sr := cell
	// Stack scratch: this runs on the plan workers concurrently, so it cannot
	// borrow a buffer from the Monitor. More obstacles spill to the heap.
	var obsBuf [32]geom.Rect
	obstacles := obsBuf[:0]
	for _, q := range relevant {
		switch q.Kind {
		case query.KindRange:
			if q.Rect.Contains(p) {
				sr = sr.Intersect(q.Rect)
			} else if !m.opt.DisableBatchRange {
				obstacles = append(obstacles, q.Rect)
			} else {
				sr = sr.Intersect(saferegion.ForRange(q.Rect, p, cell, obj))
			}
		case query.KindCircle:
			sr = sr.Intersect(m.circleSafeRegion(q, st, cell, obj))
		case query.KindKNN:
			sr = sr.Intersect(m.knnSafeRegion(q, st, cell, obj))
		}
	}
	if len(obstacles) > 0 {
		if m.opt.GreedyBatch {
			sr = sr.Intersect(saferegion.ForRangeBatchGreedy(obstacles, p, cell, obj))
		} else {
			sr = sr.Intersect(saferegion.ForRangeBatch(obstacles, p, cell, obj))
		}
	}
	return sr
}

// recomputeSafeRegion rebuilds the full safe region of an object from all
// relevant queries of its grid cell and mirrors it into the object index.
func (m *Monitor) recomputeSafeRegion(st *objectState) {
	m.stats.SafeRegionsBuilt++
	if m.mobs != nil {
		m.mobs.lg.noteSafeRegion(st.id)
	}
	relevant, cell := m.relevantQueriesAt(st.lastLoc)
	st.safe = clampSafe(m.safeRegionFromRelevant(st, relevant, cell), st.lastLoc)
	m.tree.Update(st.id, st.safe)
}

// safeRegionForQuery computes the safe region p.sr_Q induced by a single
// query (used when a probe during a new query's evaluation only needs to
// intersect the existing region with the new query's contribution).
func (m *Monitor) safeRegionForQuery(q *query.Query, st *objectState, cell geom.Rect) geom.Rect {
	switch q.Kind {
	case query.KindRange:
		return saferegion.ForRange(q.Rect, st.lastLoc, cell, m.objective(st))
	case query.KindCircle:
		return m.circleSafeRegion(q, st, cell, m.objective(st))
	default:
		return m.knnSafeRegion(q, st, cell, m.objective(st))
	}
}

// circleSafeRegion computes p.sr_Q for a within-distance query: members roam
// the inscribed rectangle of the circle, non-members its complement (the
// Section 5.2 constructions applied to a fixed circle).
func (m *Monitor) circleSafeRegion(q *query.Query, st *objectState, cell geom.Rect, obj geom.Objective) geom.Rect {
	p := st.lastLoc
	c := q.Circle()
	if q.InResult[st.id] {
		if !c.Contains(p) {
			return geom.RectAround(p) // drifted under delays; next update heals
		}
		return geom.IrlpCircle(c, p, cell, obj)
	}
	if c.Contains(p) {
		return geom.RectAround(p)
	}
	return geom.IrlpCircleComplement(c, p, cell, obj)
}

// knnSafeRegion computes p.sr_Q for a kNN query (Section 5.2):
//
//   - non-result objects roam the complement of the quarantine circle;
//   - order-insensitive results roam the quarantine circle itself;
//   - the i-th result of an order-sensitive query roams the ring between its
//     neighbors' distance bounds, degenerating to a circle for i=1 and to the
//     quarantine radius for i=k.
func (m *Monitor) knnSafeRegion(q *query.Query, st *objectState, cell geom.Rect, obj geom.Objective) geom.Rect {
	p := st.lastLoc
	qc := q.QuarantineCircle()
	if !q.InResult[st.id] {
		if qc.Contains(p) {
			// Inconsistent under delays: freeze the object until its next
			// update rather than hand out a region violating the quarantine.
			return geom.RectAround(p)
		}
		return geom.IrlpCircleComplement(qc, p, cell, obj)
	}
	if !qc.Contains(p) {
		return geom.RectAround(p)
	}
	if !q.OrderSensitive {
		return geom.IrlpCircle(qc, p, cell, obj)
	}
	i := 0
	for ; i < len(q.Results); i++ {
		if q.Results[i] == st.id {
			break
		}
	}
	d := q.Point.Dist(p)
	inner := 0.0
	if i > 0 {
		prev := q.Results[i-1]
		_, inner = m.bounds(q.Point, prev)
		if m.isExact(prev) {
			// The neighbor's safe region is momentarily a point (probed, not
			// yet recomputed): split the slack between the two objects
			// (Section 5.2).
			inner = (q.Point.Dist(m.objects[prev].lastLoc) + d) / 2
		}
	}
	outer := q.QRadius
	if i < len(q.Results)-1 {
		next := q.Results[i+1]
		outer, _ = m.bounds(q.Point, next)
		if m.isExact(next) {
			outer = (q.Point.Dist(m.objects[next].lastLoc) + d) / 2
		}
	}
	// Keep the object inside its own ring even when bounds drifted under
	// communication delays.
	if inner > d {
		inner = d
	}
	if outer < d {
		outer = d
	}
	return geom.IrlpRing(geom.Ring{Center: q.Point, Inner: inner, Outer: outer}, p, cell, obj)
}

// clampSafe guards a computed region against floating-point drift: the final
// safe region must contain the object's reported location.
func clampSafe(r geom.Rect, p geom.Point) geom.Rect {
	if !r.IsValid() {
		return geom.RectAround(p)
	}
	if !r.Contains(p) {
		return r.Union(geom.RectAround(p))
	}
	return r
}
