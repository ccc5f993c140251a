package geom

import "math"

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

// familyKind names the one-parameter rectangle families of the Ir-lp
// constructions.
type familyKind uint8

const (
	inscribed familyKind = iota // Prop 5.2: centered on q, all four corners on the circle
	arc                         // Prop 5.4 family 1: one corner on the quarter arc, the opposite one at t
	ringH                       // Prop 5.5 layout H: on the inner circle's tangent above q, top corners on the outer circle
	ringV                       // Prop 5.5 layout V: on the inner circle's tangent right of q, right corners on the outer circle
)

// family is a one-parameter Ir-lp rectangle family in the canonical frame of
// a reflection. θ is the angle from the y-axis of the corner(s) on the
// circle of radius r about q.
type family struct {
	kind  familyKind
	q     Point
	r     float64 // the circle's radius; the outer radius for ringH and ringV
	inner float64 // ringH, ringV: the inner radius the rectangle is tangent to
	t     Point   // arc: the fixed corner opposite the arc
}

// at returns the family's rectangle at θ and its θ-derivative: the rates of
// MinX, MinY, MaxX and MaxY, packed in a Rect.
func (f family) at(theta float64) (Rect, Rect) {
	s, c := math.Sincos(theta)
	rs, rc := f.r*s, f.r*c
	q := f.q
	switch f.kind {
	case inscribed:
		return Rect{q.X - rs, q.Y - rc, q.X + rs, q.Y + rc}, Rect{-rc, rs, rc, -rs}
	case arc:
		return R(q.X+rs, q.Y+rc, f.t.X, f.t.Y), Rect{rc, -rs, 0, 0}
	case ringH:
		return Rect{q.X - rs, q.Y + f.inner, q.X + rs, q.Y + rc}, Rect{-rc, 0, rc, -rs}
	default:
		return Rect{q.X + f.inner, q.Y - rc, q.X + rs, q.Y + rc}, Rect{0, rs, rc, -rs}
	}
}

func (f family) rect(theta float64) Rect {
	r, _ := f.at(theta)
	return r
}

// thetaTol is the bracket width, in radians, at which the θ search stops:
// √ε = 2⁻²⁶. Near a smooth interior maximum the objective moves by O(Δθ²),
// so two probes closer than √ε differ by about ε of the score and comparing
// them is rounding noise; narrower brackets only burn evaluations.
const thetaTol = 1.0 / (1 << 26)

// optimizeTheta maximizes obj over the family fam on [lo, hi]. fam builds
// rectangles in the canonical frame of rf; obj scores them mapped back, as
// rf.rect(fam.rect(θ)). The plain exit integral is maximized by slopeSearch,
// the weighted objective by goldenTheta. Returns the best canonical
// rectangle and the number of objective evaluations made; ok=false when
// lo > hi.
func optimizeTheta(lo, hi float64, fam family, obj Objective, rf reflection, analytic float64) (Rect, int, bool) {
	if lo > hi {
		return Rect{}, 0, false
	}
	var theta float64
	var n int
	if obj.weighted() {
		theta, n = goldenTheta(lo, hi, fam, obj, rf, analytic)
	} else {
		theta, n = slopeSearch(lo, hi, fam, rf.point(obj.p), analytic)
	}
	return fam.rect(theta), n, true
}

// probe is one evaluation of the exit integral along a family: θ, the score
// f and its θ-slope g.
type probe struct{ theta, f, g float64 }

func (f family) probe(theta float64, p Point) probe {
	r, dr := f.at(theta)
	s, g := exitScoreSlope(r, dr, p)
	return probe{theta, s, g}
}

// slopeSearch returns the θ of [lo, hi] whose rectangle has the largest exit
// integral about p (canonical frame), with the number of evaluations made.
// Each evaluation yields the score and its exact slope from one pass over
// the four corner terms (exitScoreSlope).
//
// The score is not unimodal along every family (DESIGN.md §2, Prop 5.4), so
// the search never root-finds the slope blindly. It probes lo, the midpoint,
// hi and the analytic point when it is interior. Between two probes with
// finite slopes a cubic Hermite interpolant can reveal a peak the scores
// alone hide, so the highest such peak predicted above the best probe is
// probed too. A best end whose slope points outward, or a flat best probe,
// is the answer. Otherwise the best probe is bracketed by its neighbours
// and refined by Brent's method with derivatives (Numerical Recipes'
// dbrent, maximizing): the best point so far stays inside the bracket, a
// secant step on the slope is taken only toward the side the slope points
// to and only while the steps keep halving, and the side is bisected
// otherwise. The search stops when that side is at most thetaTol wide, or
// when the secant puts the slope's zero within thetaTol of the best point.
//
// An end whose slope points inward is never returned: its rectangle has p
// on an edge, and after mapping back one ulp can put p outside. While such
// an end is the best point, its slope is a log singularity that no secant
// models, so the side is bisected. Should the refinement never beat that
// end, the nearest interior probe is returned.
func slopeSearch(lo, hi float64, fam family, p Point, analytic float64) (float64, int) {
	mid := lo + (hi-lo)/2
	if hi-lo <= thetaTol {
		return mid, 0
	}
	var pr [5]probe
	n := 0
	pr[n] = fam.probe(lo, p)
	n++
	if analytic > lo && analytic < mid {
		pr[n] = fam.probe(analytic, p)
		n++
	}
	pr[n] = fam.probe(mid, p)
	n++
	if analytic > mid && analytic < hi {
		pr[n] = fam.probe(analytic, p)
		n++
	}
	pr[n] = fam.probe(hi, p)
	n++
	i := bestProbe(pr[:n])
	if j, theta := cubicCandidate(pr[:n], pr[i].f); j >= 0 {
		copy(pr[j+2:n+1], pr[j+1:n])
		pr[j+1] = fam.probe(theta, p)
		n++
		i = bestProbe(pr[:n])
	}
	x := pr[i]
	if x.g == 0 || i == 0 && x.g < 0 || i == n-1 && x.g > 0 {
		return x.theta, n
	}

	a, b := pr[max(i-1, 0)], pr[min(i+1, n-1)]
	w, v := b, a // the two latest other points, for secant steps
	if x.g < 0 {
		w, v = a, b
	}
	atEnd := i == 0 || i == n-1
	// d is the last step and e the one before it; a secant step must be at
	// most half of e, else the side is bisected (Brent's safeguard).
	d := b.theta - a.theta
	e := d
	for n < maxSlopeEvals {
		end := a
		if x.g > 0 {
			end = b
		}
		side := end.theta - x.theta
		if math.Abs(side) <= thetaTol {
			break
		}
		olde := e
		e = d
		s := secantStep(x, w, side)
		if s2 := secantStep(x, v, side); math.Abs(s2) < math.Abs(s) || math.IsNaN(s) {
			s = s2
		}
		if !atEnd && math.Abs(s) <= math.Abs(olde)/2 && math.Abs(side-s) > thetaTol {
			if math.Abs(s) < thetaTol {
				// The slope's zero is within thetaTol of x: take it unevaluated.
				return x.theta + s, n
			}
			d = s
		} else {
			e, d = side, side/2
		}
		u := fam.probe(x.theta+d, p)
		n++
		if u.f > x.f {
			if d > 0 {
				a = x
			} else {
				b = x
			}
			v, w, x = w, x, u
			atEnd = false
			if x.g == 0 {
				break
			}
		} else {
			if d > 0 {
				b = u
			} else {
				a = u
			}
			v, w = w, u
		}
	}
	if atEnd {
		if x.g > 0 {
			return b.theta, n
		}
		return a.theta, n
	}
	return x.theta, n
}

// bestProbe returns the index of the highest-scoring probe, the first on a
// tie.
func bestProbe(pr []probe) int {
	i := 0
	for j := 1; j < len(pr); j++ {
		if pr[j].f > pr[i].f {
			i = j
		}
	}
	return i
}

// cubicCandidate looks between adjacent probes for a peak their scores do
// not show. On each interval it takes the cubic Hermite interpolant of the
// scores and slopes, and returns the interval index and θ of the highest
// interior maximum predicted above best; j = -1 when there is none.
func cubicCandidate(pr []probe, best float64) (int, float64) {
	j, theta := -1, 0.0
	for k := 0; k+1 < len(pr); k++ {
		if t, f, ok := cubicPeak(pr[k], pr[k+1]); ok && f > best {
			j, theta, best = k, t, f
		}
	}
	return j, theta
}

// cubicPeak returns the interior maximum of the cubic Hermite interpolant
// of the score between the probes a and b, and its predicted score. ok is
// false when the cubic has no maximum strictly inside, or a slope is
// infinite.
func cubicPeak(a, b probe) (float64, float64, bool) {
	h := b.theta - a.theta
	if math.IsInf(a.g, 0) || math.IsInf(b.g, 0) || !(h > 0) {
		return 0, 0, false
	}
	// H(s) = a.f + d0·s + c2·s² + c3·s³ on s ∈ [0, 1]. Its maximum is the
	// root of H′(s) = d0 + 2c2·s + 3c3·s² with H″ = −2√disc < 0, taken in
	// the form that does not cancel.
	d0, d1 := a.g*h, b.g*h
	delta := b.f - a.f
	c2 := 3*delta - 2*d0 - d1
	c3 := d0 + d1 - 2*delta
	disc := c2*c2 - 3*c3*d0
	if !(disc > 0) {
		return 0, 0, false
	}
	var s float64
	if c2 <= 0 {
		s = d0 / (math.Sqrt(disc) - c2)
	} else {
		s = -(c2 + math.Sqrt(disc)) / (3 * c3)
	}
	if !(s > 0 && s < 1) {
		return 0, 0, false
	}
	return a.theta + s*h, a.f + s*(d0+s*(c2+s*c3)), true
}

// maxSlopeEvals caps one slopeSearch call. The probes (at most five) leave
// a side at most π/4 wide, which bisection alone narrows to thetaTol in 26
// steps, so the cap only guards against a pathological run of short secant
// steps; TestOptimizeThetaAgainstReference checks that it never fires.
const maxSlopeEvals = 32

// secantStep returns the step from x to the zero of the slope's secant
// through x and w when that zero lies strictly inside the side (the open
// interval from x of signed width side), and NaN otherwise.
func secantStep(x, w probe, side float64) float64 {
	s := (w.theta - x.theta) * x.g / (x.g - w.g)
	if !(s/side > 0 && s/side < 1) {
		return math.NaN()
	}
	return s
}

// goldenTheta maximizes obj over the family by scoring the endpoints, the
// analytic point when it is interior, and goldenSection's answer. It serves
// the weighted objective, whose clamped arccos puts cusps on the curve, so
// it uses no slope. Returns the best θ and the number of evaluations, at
// most 44.
func goldenTheta(lo, hi float64, fam family, obj Objective, rf reflection, analytic float64) (float64, int) {
	best, bestScore := lo, obj.Score(rf.rect(fam.rect(lo)))
	n := 1
	if s := obj.Score(rf.rect(fam.rect(hi))); s > bestScore {
		best, bestScore = hi, s
	}
	n++
	if analytic > lo && analytic < hi {
		if s := obj.Score(rf.rect(fam.rect(analytic))); s > bestScore {
			best, bestScore = analytic, s
		}
		n++
	}
	theta, s, m := goldenSection(lo, hi, fam, obj, rf)
	if s > bestScore {
		best = theta
	}
	return best, n + m
}

// invPhi is 1/φ, the factor by which each golden-section step shrinks the
// bracket.
const invPhi = 0.6180339887498949

// goldenSection returns the best interior θ of [lo, hi] for obj over the
// reflected family, with its score and the number of evaluations. It is the
// paper's shrinking search (Section 6.2) in golden-section form: each step
// keeps the better of the two interior probes and evaluates one new point on
// its far side. The kept probe is therefore the best of all probes so far,
// and it is the answer once the bracket is at most thetaTol wide: no extra
// evaluation at the end, and never worse than any θ it scored, should obj
// have several peaks. A bracket of width π/2 takes at most 41 evaluations.
func goldenSection(lo, hi float64, fam family, obj Objective, rf reflection) (float64, float64, int) {
	a, b := lo, hi
	if b-a <= thetaTol {
		mid := (a + b) / 2
		return mid, obj.Score(rf.rect(fam.rect(mid))), 1
	}
	x1, x2 := b-invPhi*(b-a), a+invPhi*(b-a)
	f1, f2 := obj.Score(rf.rect(fam.rect(x1))), obj.Score(rf.rect(fam.rect(x2)))
	n := 2
	for b-a > thetaTol {
		if f1 < f2 {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = obj.Score(rf.rect(fam.rect(x2)))
		} else {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = obj.Score(rf.rect(fam.rect(x1)))
		}
		n++
	}
	if f1 < f2 {
		return x2, f2, n
	}
	return x1, f1, n
}

// picker keeps the best-scoring canonical candidate rectangle containing
// the canonical point cp, scoring each one mapped back by rf.
type picker struct {
	obj   Objective
	rf    reflection
	cp    Point
	best  Rect
	score float64
}

// newPicker starts from the point rectangle at cp, which scores 0.
func newPicker(obj Objective, rf reflection, cp Point) picker {
	return picker{obj: obj, rf: rf, cp: cp, best: RectAround(cp)}
}

func (k *picker) consider(r Rect) {
	if !r.IsValid() || !r.Contains(k.cp) {
		return
	}
	if s := k.obj.Score(k.rf.rect(r)); s > k.score {
		k.best, k.score = r, s
	}
}

// IrlpCircle returns the inscribed rectangle of the disk c with the largest
// objective that still contains p (Proposition 5.2), intersected with cell.
// p must lie inside the disk; if it does not, the degenerate rectangle at p
// is returned.
func IrlpCircle(c Circle, p Point, cell Rect, obj Objective) Rect {
	r, _ := irlpCircle(c, p, cell, obj)
	return r
}

// irlpCircle is IrlpCircle that also returns the evaluations its θ search
// made.
func irlpCircle(c Circle, p Point, cell Rect, obj Objective) (Rect, int) {
	if c.R <= 0 || !c.Contains(p) {
		return RectAround(p).Intersect(cell), 0
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
	best, n, ok := optimizeTheta(thetaLo, thetaHi, family{kind: inscribed, q: q, r: c.R}, obj, rf, math.Pi/4)
	if !ok {
		return RectAround(p).Intersect(cell), 0
	}
	out := rf.rect(best).Intersect(cell)
	return ensureContains(out, p, cell), n
}

// IrlpCircleComplement returns the largest-objective rectangle inside cell
// that avoids the disk c and contains p (Proposition 5.4, with the perimeter
// direction corrected — see DESIGN.md). p must lie inside cell and outside
// the disk.
func IrlpCircleComplement(c Circle, p Point, cell Rect, obj Objective) Rect {
	r, _ := irlpCircleComplement(c, p, cell, obj)
	return r
}

// irlpCircleComplement is IrlpCircleComplement that also returns the
// evaluations its θ search made.
func irlpCircleComplement(c Circle, p Point, cell Rect, obj Objective) (Rect, int) {
	if !c.IntersectsRect(cell) {
		return cell, 0
	}
	if c.Contains(p) {
		return RectAround(p).Intersect(cell), 0
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
	k := newPicker(obj, rf, cp)
	n := 0

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
	if r, m, ok := optimizeTheta(thetaY, thetaX, family{kind: arc, q: q, r: c.R, t: t}, obj, rf, math.Pi/4); ok {
		k.consider(r)
		n = m
	}
	// Family 2 (position ①): the full-width strip above the circle.
	if dy >= c.R {
		k.consider(Rect{ce.MinX, q.Y + c.R, ce.MaxX, ce.MaxY})
	}
	// Family 3 (position ②): the full-height strip beside the circle.
	if dx >= c.R {
		k.consider(Rect{q.X + c.R, ce.MinY, ce.MaxX, ce.MaxY})
	}

	out := rf.rect(k.best).Intersect(cell)
	return ensureContains(out, p, cell), n
}

// IrlpRing returns the largest-objective rectangle within the annulus rg that
// contains p (Proposition 5.5 plus the radial-box fallback for objects beside
// the inner disk), intersected with cell.
func IrlpRing(rg Ring, p Point, cell Rect, obj Objective) Rect {
	r, _ := irlpRing(rg, p, cell, obj)
	return r
}

// irlpRing is IrlpRing that also returns the most evaluations any one of its
// θ searches made.
func irlpRing(rg Ring, p Point, cell Rect, obj Objective) (Rect, int) {
	if rg.Inner <= 0 {
		return irlpCircle(Circle{rg.Center, rg.Outer}, p, cell, obj)
	}
	if !rg.Contains(p) {
		return RectAround(p).Intersect(cell), 0
	}
	rf := canonicalize(rg.Center, p)
	cp := rf.point(p)
	q := rg.Center
	dx := cp.X - q.X
	dy := cp.Y - q.Y
	rr, RR := rg.Inner, rg.Outer
	k := newPicker(obj, rf, cp)
	n := 0

	thetaLo := math.Asin(clamp(dx/RR, 0, 1))
	thetaHi := math.Acos(clamp(dy/RR, 0, 1))
	// Layout H: tangent to the inner circle from above, corners on the outer
	// circle. Valid when p sits above the inner circle (dy ≥ inner).
	if dy >= rr {
		if r, m, ok := optimizeTheta(thetaLo, thetaHi, family{kind: ringH, q: q, r: RR, inner: rr}, obj, rf, math.Atan(2)); ok {
			k.consider(r)
			n = m
		}
	}
	// Layout V: tangent to the inner circle from the right.
	if dx >= rr {
		if r, m, ok := optimizeTheta(thetaLo, thetaHi, family{kind: ringV, q: q, r: RR, inner: rr}, obj, rf, math.Atan(0.5)); ok {
			k.consider(r)
			n = max(n, m)
		}
	}
	// Radial box fallback: corners scaled along p's direction to the inner and
	// outer radii; always valid for p in the ring, and the only candidate when
	// dx < inner and dy < inner.
	d := math.Hypot(dx, dy)
	if d > 0 {
		k.consider(Rect{
			q.X + dx*rr/d, q.Y + dy*rr/d,
			q.X + dx*RR/d, q.Y + dy*RR/d,
		})
	}

	out := rf.rect(k.best).Intersect(cell)
	return ensureContains(out, p, cell), n
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
	bestScore := obj.Score(best)
	for _, cand := range [4]Rect{
		{cell.MinX, cell.MinY, qc.MinX, cell.MaxY}, // left strip
		{qc.MaxX, cell.MinY, cell.MaxX, cell.MaxY}, // right strip
		{cell.MinX, cell.MinY, cell.MaxX, qc.MinY}, // bottom strip
		{cell.MinX, qc.MaxY, cell.MaxX, cell.MaxY}, // top strip
	} {
		if !cand.IsValid() || !cand.Contains(p) {
			continue
		}
		if s := obj.Score(cand); s > bestScore {
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
