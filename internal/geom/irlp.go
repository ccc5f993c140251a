package geom

import "math"

// Objective scores a candidate safe region; larger is better. The default is
// Rect.Perimeter (Theorem 5.1 shows minimizing the update rate is equivalent
// to maximizing the perimeter for uniformly random headings). Section 6.2
// substitutes the steady-movement weighted perimeter.
type Objective func(Rect) float64

// Perimeter is the default objective from Theorem 5.1.
func Perimeter(r Rect) float64 { return r.Perimeter() }

// WeightedPerimeter returns the steady-movement objective of Section 6.2.
// plst is the previous reported location, p the current one, and d ∈ [0, 1]
// the steadiness parameter. The weighted perimeter of a rectangle with
// ordinary perimeter λ, center o, is approximated through a circle of equal
// perimeter:
//
//	λw = (1+D)·λ − (2Dλ/π)·arccos(2π·|po|·cosβ / λ)
//
// where β is the angle between the vector p→o and the heading p_lst→p.
func WeightedPerimeter(plst, p Point, d float64) Objective {
	heading := p.Sub(plst)
	hn := heading.Norm()
	return func(r Rect) float64 {
		lambda := r.Perimeter()
		if lambda <= 0 {
			return 0
		}
		if d == 0 || hn == 0 {
			return lambda
		}
		po := r.Center().Sub(p)
		pod := po.Norm()
		cosBeta := 1.0
		if pod > 0 {
			cosBeta = (po.X*heading.X + po.Y*heading.Y) / (pod * hn)
		}
		arg := 2 * math.Pi * pod * cosBeta / lambda
		if arg > 1 {
			arg = 1
		} else if arg < -1 {
			arg = -1
		}
		return (1+d)*lambda - (2*d*lambda/math.Pi)*math.Acos(arg)
	}
}

// reflection maps the plane so that an arbitrary configuration becomes the
// canonical one (target point in the first quadrant relative to the pivot q),
// and maps results back. It is its own inverse.
type reflection struct {
	q      Point
	sx, sy float64
}

func canonicalize(q, p Point) reflection {
	rf := reflection{q: q, sx: 1, sy: 1}
	if p.X < q.X {
		rf.sx = -1
	}
	if p.Y < q.Y {
		rf.sy = -1
	}
	return rf
}

func (rf reflection) point(p Point) Point {
	return Point{rf.q.X + rf.sx*(p.X-rf.q.X), rf.q.Y + rf.sy*(p.Y-rf.q.Y)}
}

func (rf reflection) rect(r Rect) Rect {
	a := rf.point(Point{r.MinX, r.MinY})
	b := rf.point(Point{r.MaxX, r.MaxY})
	return R(a.X, a.Y, b.X, b.Y)
}

// thetaTol is the bracket width, in radians, at which the θ search stops:
// √ε = 2⁻²⁶. Near a smooth interior maximum the objective moves by O(Δθ²),
// so two probes closer than √ε differ by about ε of the score and comparing
// them is rounding noise; narrower brackets only burn evaluations.
const thetaTol = 1.0 / (1 << 26)

// invPhi is 1/φ, the factor by which each golden-section step shrinks the
// bracket.
const invPhi = 0.6180339887498949

// goldenSection returns the best interior θ of [lo, hi] for obj over the
// reflected family mk, with its score. It is the paper's shrinking search
// (Section 6.2) in golden-section form: each step keeps the better of the
// two interior probes and evaluates one new point on its far side. The kept
// probe is therefore the best of all probes so far, and it is the answer
// once the bracket is at most thetaTol wide: no extra evaluation at the end,
// and never worse than any θ it scored, should obj have several peaks. A
// bracket of width π/2 takes at most 41 evaluations.
func goldenSection(lo, hi float64, mk func(float64) Rect, obj Objective, rf reflection) (float64, float64) {
	a, b := lo, hi
	if b-a <= thetaTol {
		mid := (a + b) / 2
		return mid, obj(rf.rect(mk(mid)))
	}
	x1, x2 := b-invPhi*(b-a), a+invPhi*(b-a)
	f1, f2 := obj(rf.rect(mk(x1))), obj(rf.rect(mk(x2)))
	for b-a > thetaTol {
		if f1 < f2 {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = obj(rf.rect(mk(x2)))
		} else {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = obj(rf.rect(mk(x1)))
		}
	}
	if f1 < f2 {
		return x2, f2
	}
	return x1, f1
}

// optimizeTheta maximizes obj over the unimodal single-parameter rectangle
// family mk on [lo, hi]. mk builds rectangles in the canonical frame of rf
// and obj scores them mapped back, as rf.rect(mk(θ)). The candidates are the
// interval endpoints, the analytic optimum when it lies inside the interval,
// and the search's answer: at most 44 evaluations. Returns the best
// canonical rectangle; ok=false when lo > hi.
func optimizeTheta(lo, hi float64, mk func(float64) Rect, obj Objective, rf reflection, analytic float64) (Rect, bool) {
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
	if theta, s := goldenSection(lo, hi, mk, obj, rf); s > bestScore {
		best = mk(theta)
	}
	return best, true
}

// IrlpCircle returns the inscribed rectangle of the disk c with the largest
// objective that still contains p (Proposition 5.2), intersected with cell.
// p must lie inside the disk; if it does not, the degenerate rectangle at p
// is returned.
func IrlpCircle(c Circle, p Point, cell Rect, obj Objective) Rect {
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
	best, ok := optimizeTheta(thetaLo, thetaHi, mk, obj, rf, math.Pi/4)
	if !ok {
		return RectAround(p).Intersect(cell)
	}
	out := rf.rect(best).Intersect(cell)
	return ensureContains(out, p, cell)
}

// IrlpCircleComplement returns the largest-objective rectangle inside cell
// that avoids the disk c and contains p (Proposition 5.4, with the perimeter
// direction corrected — see DESIGN.md). p must lie inside cell and outside
// the disk.
func IrlpCircleComplement(c Circle, p Point, cell Rect, obj Objective) Rect {
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
		if r, ok := optimizeTheta(thetaY, thetaX, mk, obj, rf, math.Pi/4); ok && r.Contains(cp) {
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

// IrlpRing returns the largest-objective rectangle within the annulus rg that
// contains p (Proposition 5.5 plus the radial-box fallback for objects beside
// the inner disk), intersected with cell.
func IrlpRing(rg Ring, p Point, cell Rect, obj Objective) Rect {
	if rg.Inner <= 0 {
		return IrlpCircle(Circle{rg.Center, rg.Outer}, p, cell, obj)
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
		if r, ok := optimizeTheta(thetaLo, thetaHi, mk, obj, rf, math.Atan(2)); ok {
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
		if r, ok := optimizeTheta(thetaLo, thetaHi, mk, obj, rf, math.Atan(0.5)); ok {
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

// IrlpRectComplement returns the best of the four cell-anchored strips that
// avoid the (cell-clipped) rectangle q and contain p (Section 5.1, Figure
// 5.1(b)). p must be inside cell and outside q.
func IrlpRectComplement(q Rect, p Point, cell Rect, obj Objective) Rect {
	qc := q.Intersect(cell)
	if !qc.IsValid() {
		return cell
	}
	if qc.Contains(p) {
		return RectAround(p)
	}
	best := RectAround(p)
	bestScore := obj(best)
	for _, cand := range [4]Rect{
		{cell.MinX, cell.MinY, qc.MinX, cell.MaxY}, // left strip
		{qc.MaxX, cell.MinY, cell.MaxX, cell.MaxY}, // right strip
		{cell.MinX, cell.MinY, cell.MaxX, qc.MinY}, // bottom strip
		{cell.MinX, qc.MaxY, cell.MaxX, cell.MaxY}, // top strip
	} {
		if !cand.IsValid() || !cand.Contains(p) {
			continue
		}
		if s := obj(cand); s > bestScore {
			best, bestScore = cand, s
		}
	}
	return best
}

// ensureContains guards against floating-point rounding expelling p from the
// computed region: the result is widened by the minimum amount required so
// that p is inside, while staying inside cell.
func ensureContains(r Rect, p Point, cell Rect) Rect {
	if !r.IsValid() {
		r = RectAround(p)
	}
	if !r.Contains(p) {
		r = r.Union(RectAround(p))
	}
	return r.Intersect(cell.Union(RectAround(p)))
}
