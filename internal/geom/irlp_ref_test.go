package geom

import "math"

// The Ir-lp constructions as they stood before the slope search, kept
// verbatim (renamed) as the reference TestOptimizeThetaAgainstReference and
// TestThetaSearchHardCases compare against: refOptimizeTheta scores the
// interval endpoints and the analytic point, then runs refGoldenSection, a
// golden-section search stopped at a √ε bracket, through an objective
// closure. refObjective stands in for the closure type the objective was.

type refObjective = func(Rect) float64

const refThetaTol = 1.0 / (1 << 26)

const refInvPhi = 0.6180339887498949

func refGoldenSection(lo, hi float64, mk func(float64) Rect, obj refObjective, rf reflection) (float64, float64) {
	a, b := lo, hi
	if b-a <= refThetaTol {
		mid := (a + b) / 2
		return mid, obj(rf.rect(mk(mid)))
	}
	x1, x2 := b-refInvPhi*(b-a), a+refInvPhi*(b-a)
	f1, f2 := obj(rf.rect(mk(x1))), obj(rf.rect(mk(x2)))
	for b-a > refThetaTol {
		if f1 < f2 {
			a, x1, f1 = x1, x2, f2
			x2 = a + refInvPhi*(b-a)
			f2 = obj(rf.rect(mk(x2)))
		} else {
			b, x2, f2 = x2, x1, f1
			x1 = b - refInvPhi*(b-a)
			f1 = obj(rf.rect(mk(x1)))
		}
	}
	if f1 < f2 {
		return x2, f2
	}
	return x1, f1
}

func refOptimizeTheta(lo, hi float64, mk func(float64) Rect, obj refObjective, rf reflection, analytic float64) (Rect, bool) {
	if lo > hi {
		return Rect{}, false
	}
	best := mk(lo)
	bestScore := obj(rf.rect(best))
	try := func(theta float64) {
		r := mk(theta)
		if s := obj(rf.rect(r)); s > bestScore {
			best, bestScore = r, s
		}
	}
	try(hi)
	if analytic > lo && analytic < hi {
		try(analytic)
	}
	if theta, s := refGoldenSection(lo, hi, mk, obj, rf); s > bestScore {
		best = mk(theta)
	}
	return best, true
}

func refIrlpCircle(c Circle, p Point, cell Rect, obj refObjective) Rect {
	if c.R <= 0 || !c.Contains(p) {
		return RectAround(p).Intersect(cell)
	}
	rf := canonicalize(c.Center, p)
	cp := rf.point(p)
	q := c.Center
	dx := cp.X - q.X
	dy := cp.Y - q.Y
	// Inscribed rectangle with corner at angle θ from the y-axis:
	// half-width r·sinθ, half-height r·cosθ. Containment of p requires
	// θ ∈ [arcsin(dx/r), arccos(dy/r)].
	thetaLo := math.Asin(clamp(dx/c.R, 0, 1))
	thetaHi := math.Acos(clamp(dy/c.R, 0, 1))
	mk := func(theta float64) Rect {
		hw := c.R * math.Sin(theta)
		hh := c.R * math.Cos(theta)
		return Rect{q.X - hw, q.Y - hh, q.X + hw, q.Y + hh}
	}
	best, ok := refOptimizeTheta(thetaLo, thetaHi, mk, obj, rf, math.Pi/4)
	if !ok {
		return RectAround(p).Intersect(cell)
	}
	out := rf.rect(best).Intersect(cell)
	return ensureContains(out, p, cell)
}

func refIrlpCircleComplement(c Circle, p Point, cell Rect, obj refObjective) Rect {
	if !c.IntersectsRect(cell) {
		return cell
	}
	if c.Contains(p) {
		return RectAround(p).Intersect(cell)
	}
	// Work inside the cell enlarged to cover the circle, then clip back
	// (Section 5.2 "we enlarge the cell to fully contain the circle").
	e := cell.Union(c.BBox())
	rf := canonicalize(c.Center, p)
	cp := rf.point(p)
	ce := rf.rect(e)
	q := c.Center
	dx := cp.X - q.X
	dy := cp.Y - q.Y
	t := Point{ce.MaxX, ce.MaxY} // Lemma 5.3: cell corner of p's quadrant

	best := RectAround(cp)
	bestScore := obj(rf.rect(best))
	consider := func(r Rect) {
		if !r.IsValid() || !r.Contains(cp) {
			return
		}
		if s := obj(rf.rect(r)); s > bestScore {
			best, bestScore = r, s
		}
	}

	// Family 1: opposite corner x on the quarter arc, x = q + (r·sinθ, r·cosθ).
	// Containment of p requires θ ≤ θx and θ ≥ θy.
	thetaX := math.Pi / 2
	if dx < c.R {
		thetaX = math.Asin(clamp(dx/c.R, 0, 1))
	}
	thetaY := 0.0
	if dy < c.R {
		thetaY = math.Acos(clamp(dy/c.R, 0, 1))
	}
	if thetaY <= thetaX {
		mk := func(theta float64) Rect {
			x := Point{q.X + c.R*math.Sin(theta), q.Y + c.R*math.Cos(theta)}
			return R(x.X, x.Y, t.X, t.Y)
		}
		if r, ok := refOptimizeTheta(thetaY, thetaX, mk, obj, rf, math.Pi/4); ok && r.Contains(cp) {
			consider(r)
		}
	}
	// Family 2 (position ①): the full-width strip above the circle.
	if dy >= c.R {
		consider(Rect{ce.MinX, q.Y + c.R, ce.MaxX, ce.MaxY})
	}
	// Family 3 (position ②): the full-height strip beside the circle.
	if dx >= c.R {
		consider(Rect{q.X + c.R, ce.MinY, ce.MaxX, ce.MaxY})
	}

	out := rf.rect(best).Intersect(cell)
	return ensureContains(out, p, cell)
}

func refIrlpRing(rg Ring, p Point, cell Rect, obj refObjective) Rect {
	if rg.Inner <= 0 {
		return refIrlpCircle(Circle{rg.Center, rg.Outer}, p, cell, obj)
	}
	if !rg.Contains(p) {
		return RectAround(p).Intersect(cell)
	}
	rf := canonicalize(rg.Center, p)
	cp := rf.point(p)
	q := rg.Center
	dx := cp.X - q.X
	dy := cp.Y - q.Y
	rr, RR := rg.Inner, rg.Outer

	best := RectAround(cp)
	bestScore := obj(rf.rect(best))
	consider := func(r Rect) {
		if !r.IsValid() || !r.Contains(cp) {
			return
		}
		if s := obj(rf.rect(r)); s > bestScore {
			best, bestScore = r, s
		}
	}

	thetaLo := math.Asin(clamp(dx/RR, 0, 1))
	thetaHi := math.Acos(clamp(dy/RR, 0, 1))
	// Layout H: tangent to the inner circle from above, corners on the outer
	// circle. Valid when p sits above the inner circle (dy ≥ inner).
	if dy >= rr && thetaLo <= thetaHi {
		mk := func(theta float64) Rect {
			hw := RR * math.Sin(theta)
			top := RR * math.Cos(theta)
			return Rect{q.X - hw, q.Y + rr, q.X + hw, q.Y + top}
		}
		if r, ok := refOptimizeTheta(thetaLo, thetaHi, mk, obj, rf, math.Atan(2)); ok {
			consider(r)
		}
	}
	// Layout V: tangent to the inner circle from the right.
	if dx >= rr && thetaLo <= thetaHi {
		mk := func(theta float64) Rect {
			hh := RR * math.Cos(theta)
			right := RR * math.Sin(theta)
			return Rect{q.X + rr, q.Y - hh, q.X + right, q.Y + hh}
		}
		if r, ok := refOptimizeTheta(thetaLo, thetaHi, mk, obj, rf, math.Atan(0.5)); ok {
			consider(r)
		}
	}
	// Radial box fallback: corners scaled along p's direction to the inner and
	// outer radii; always valid for p in the ring, and the only candidate when
	// dx < inner and dy < inner.
	d := math.Hypot(dx, dy)
	if d > 0 {
		consider(Rect{
			q.X + dx*rr/d, q.Y + dy*rr/d,
			q.X + dx*RR/d, q.Y + dy*RR/d,
		})
	}

	out := rf.rect(best).Intersect(cell)
	return ensureContains(out, p, cell)
}
