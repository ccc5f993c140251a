// Package saferegion computes maximal-perimeter safe regions for range
// queries (Sections 5.1 and 5.3 of the paper). The kNN constructions
// (inscribed rectangles of circles, complements and rings, Section 5.2) live
// in package geom as the Ir-lp family; this package adds the range-query
// strips and the batch algorithm that handles all range queries of a grid
// cell in a single staircase-and-greedy pass.
package saferegion

import (
	"cmp"
	"slices"

	"srb/internal/geom"
)

// ForRange returns the safe region contributed by a single range query with
// query rectangle q for an object at p confined to cell (Section 5.1): the
// cell-clipped query rectangle itself when p is inside it, otherwise the best
// of the four cell-anchored strips.
func ForRange(q geom.Rect, p geom.Point, cell geom.Rect, obj geom.Objective) geom.Rect {
	qc := q.Intersect(cell)
	if qc.IsValid() && qc.Contains(p) {
		return qc
	}
	return geom.IrlpRectComplement(q, p, cell, obj)
}

// staircasePoint is an opposite corner t of a maximal component rectangle in
// one quadrant (Proposition 5.6), in p-relative quadrant coordinates.
type staircasePoint struct {
	tx, ty float64
}

// quadrant reflections, clockwise starting at north-east.
var quadrants = [4][2]float64{
	{1, 1},   // NE
	{1, -1},  // SE
	{-1, -1}, // SW
	{-1, 1},  // NW
}

// stairScratch is the caller-owned backing store of one batch computation's
// four staircases. It lives on the caller's stack, so a cell with at most
// stairScratchLen steps per quadrant builds its staircases without touching
// the heap; a longer staircase spills over through append.
type stairScratch [4][stairScratchLen]staircasePoint

const stairScratchLen = 16

// maxExhaustiveCombos bounds the quartic search over staircase combinations;
// beyond it the paper's greedy heuristic is used.
const maxExhaustiveCombos = 4096

// ForRangeBatch computes the safe region for an object at p with respect to
// all range-query rectangles in obstacles at once (Section 5.3): per quadrant
// it builds the staircase of non-dominated obstacle corners (the t set of
// Proposition 5.6) and combines one component rectangle per quadrant into the
// rectangular union. When the number of combinations is small the exact
// quartic search is used (the paper notes the optimum "takes quartic time");
// otherwise the paper's clockwise greedy is applied.
//
// Every obstacle must be a rectangle whose interior does not contain p
// (quarantine areas that contain p contribute their own rectangle and are
// intersected by the caller separately).
func ForRangeBatch(obstacles []geom.Rect, p geom.Point, cell geom.Rect, obj geom.Objective) geom.Rect {
	var buf stairScratch
	stairs, cell, ok := prepareStairs(&buf, obstacles, p, cell)
	if !ok {
		return cell
	}
	combos := len(stairs[0]) * len(stairs[1]) * len(stairs[2]) * len(stairs[3])
	if combos <= maxExhaustiveCombos {
		return exhaustiveUnion(stairs, p, cell, obj)
	}
	return greedyUnion(stairs, p, cell, obj)
}

// ForRangeBatchGreedy always applies the paper's greedy union regardless of
// staircase size. Exposed for the ablation benchmark comparing the greedy
// against the exact combination search.
func ForRangeBatchGreedy(obstacles []geom.Rect, p geom.Point, cell geom.Rect, obj geom.Objective) geom.Rect {
	var buf stairScratch
	stairs, cell, ok := prepareStairs(&buf, obstacles, p, cell)
	if !ok {
		return cell
	}
	return greedyUnion(stairs, p, cell, obj)
}

// prepareStairs builds the four quadrant staircases into buf.
func prepareStairs(buf *stairScratch, obstacles []geom.Rect, p geom.Point, cell geom.Rect) ([4][]staircasePoint, geom.Rect, bool) {
	var stairs [4][]staircasePoint
	if len(obstacles) == 0 {
		return stairs, cell, false
	}
	if !cell.Contains(p) {
		cell = cell.Union(geom.RectAround(p))
	}
	for qd, s := range quadrants {
		w := cell.MaxX - p.X
		if s[0] < 0 {
			w = p.X - cell.MinX
		}
		h := cell.MaxY - p.Y
		if s[1] < 0 {
			h = p.Y - cell.MinY
		}
		stairs[qd] = buildStaircase(buf[qd][:0], obstacles, p, s, w, h)
	}
	return stairs, cell, true
}

// exhaustiveUnion evaluates every combination of one component rectangle per
// quadrant. The union extents are right = min over the two east choices,
// top = min over the two north choices, and so on; any valid safe region is
// dominated by some combination, so this search is exact for monotone
// objectives such as the perimeter.
func exhaustiveUnion(stairs [4][]staircasePoint, p geom.Point, cell geom.Rect, obj geom.Objective) geom.Rect {
	best := geom.RectAround(p)
	bestScore := obj.Score(best)
	for _, ne := range stairs[0] {
		for _, se := range stairs[1] {
			right := minf(ne.tx, se.tx)
			for _, sw := range stairs[2] {
				bottom := minf(se.ty, sw.ty)
				for _, nw := range stairs[3] {
					cand := geom.Rect{
						MinX: p.X - minf(sw.tx, nw.tx),
						MinY: p.Y - bottom,
						MaxX: p.X + right,
						MaxY: p.Y + minf(ne.ty, nw.ty),
					}
					if s := obj.Score(cand); s > bestScore {
						best, bestScore = cand, s
					}
				}
			}
		}
	}
	return best.Intersect(cell)
}

// greedyUnion is the paper's heuristic: start from the quadrant holding the
// longest-perimeter component rectangle, proceed clockwise, and in each
// quadrant keep the component rectangle leaving the best remaining union.
func greedyUnion(stairs [4][]staircasePoint, p geom.Point, cell geom.Rect, obj geom.Objective) geom.Rect {
	start := 0
	best := -1.0
	for qd := range stairs {
		for _, t := range stairs[qd] {
			if per := 2 * (t.tx + t.ty); per > best {
				best, start = per, qd
			}
		}
	}

	right, top := cell.MaxX-p.X, cell.MaxY-p.Y
	left, bottom := p.X-cell.MinX, p.Y-cell.MinY

	apply := func(qd int, t staircasePoint, r, tp, l, b float64) (float64, float64, float64, float64) {
		if quadrants[qd][0] > 0 {
			r = minf(r, t.tx)
		} else {
			l = minf(l, t.tx)
		}
		if quadrants[qd][1] > 0 {
			tp = minf(tp, t.ty)
		} else {
			b = minf(b, t.ty)
		}
		return r, tp, l, b
	}
	for step := 0; step < 4; step++ {
		qd := (start + step) % 4
		var bestT staircasePoint
		bestScore := -1.0
		for _, t := range stairs[qd] {
			r, tp, l, b := apply(qd, t, right, top, left, bottom)
			cand := geom.Rect{MinX: p.X - l, MinY: p.Y - b, MaxX: p.X + r, MaxY: p.Y + tp}
			if s := obj.Score(cand); s > bestScore {
				bestScore, bestT = s, t
			}
		}
		right, top, left, bottom = apply(qd, bestT, right, top, left, bottom)
	}
	out := geom.Rect{MinX: p.X - left, MinY: p.Y - bottom, MaxX: p.X + right, MaxY: p.Y + top}
	return out.Intersect(cell)
}

// buildStaircase appends the maximal component-rectangle corners for one
// quadrant to dst. Coordinates are p-relative, reflected so the quadrant is
// the first one; cw and ch bound the quadrant within the cell.
func buildStaircase(dst []staircasePoint, obstacles []geom.Rect, p geom.Point, s [2]float64, cw, ch float64) []staircasePoint {
	if cw < 0 {
		cw = 0
	}
	if ch < 0 {
		ch = 0
	}
	// Obstacles that straddle a quadrant axis strictly cannot be escaped on
	// that axis (every rectangle around p overlaps their coordinate range
	// there), so they impose a hard cap on the other axis instead of a
	// staircase corner.
	for _, o := range obstacles {
		u1, v1, ok := quadrantSpan(o, p, s)
		if !ok {
			continue
		}
		strX := u1 < 0
		strY := v1 < 0
		switch {
		case strX && strY:
			// p is strictly interior to the obstacle; callers guarantee this
			// does not happen, but degrade gracefully to a degenerate region.
			cw, ch = 0, 0
		case strX:
			ch = minf(ch, v1)
		case strY:
			cw = minf(cw, u1)
		}
	}
	type corner struct{ ax, ay float64 }
	var csBuf [32]corner
	cs := csBuf[:0]
	for _, o := range obstacles {
		u1, v1, ok := quadrantSpan(o, p, s)
		if !ok || u1 < 0 || v1 < 0 {
			continue // outside the quadrant, or handled as a cap above
		}
		if u1 >= cw || v1 >= ch {
			continue // already satisfied by the caps / cell bounds
		}
		cs = append(cs, corner{u1, v1})
	}
	if len(cs) == 0 {
		return append(dst, staircasePoint{cw, ch})
	}
	// Corners with equal ax only feed one min, so the unstable sort cannot
	// change the staircase.
	slices.SortFunc(cs, func(a, b corner) int { return cmp.Compare(a.ax, b.ax) })

	out := dst
	minAy := ch
	emit := func(tx, ty float64) {
		// Keep only Pareto-maximal points: ty is non-increasing in emission
		// order, so it suffices to drop candidates not exceeding the previous
		// tx (same tx, smaller ty) and merge equal-ty runs onto the larger tx.
		if len(out) > len(dst) {
			last := &out[len(out)-1]
			if tx <= last.tx {
				return
			}
			if ty >= last.ty {
				last.tx = tx
				last.ty = ty
				return
			}
		}
		out = append(out, staircasePoint{tx, ty})
	}
	i := 0
	for i < len(cs) {
		ax := cs[i].ax
		emit(ax, minAy)
		//lint:allow floatcmp staircase grouping: corners at the same x are exact copies of one coordinate
		for i < len(cs) && cs[i].ax == ax {
			minAy = minf(minAy, cs[i].ay)
			i++
		}
	}
	emit(cw, minAy)
	return out
}

// quadrantSpan returns the near corner (u1, v1) of obstacle o in the
// p-relative coordinates of the quadrant reflected by s, and whether o
// overlaps the open quadrant region at all.
func quadrantSpan(o geom.Rect, p geom.Point, s [2]float64) (u1, v1 float64, ok bool) {
	u1 = s[0] * (o.MinX - p.X)
	u2 := s[0] * (o.MaxX - p.X)
	if u1 > u2 {
		u1, u2 = u2, u1
	}
	v1 = s[1] * (o.MinY - p.Y)
	v2 := s[1] * (o.MaxY - p.Y)
	if v1 > v2 {
		v1, v2 = v2, v1
	}
	return u1, v1, !(u2 <= 0 || v2 <= 0)
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
