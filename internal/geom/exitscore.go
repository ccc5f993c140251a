package geom

import "math"

// MeanExitChord returns ∫₀^{2π} k(θ) dθ where k(θ) is the distance from p to
// the boundary of r along direction θ — the integral that Theorem 5.1 shows
// is inversely proportional to the amortized location-update rate of an
// object at p moving in a uniformly random direction.
//
// The paper equates this integral to the rectangle's perimeter, which only
// holds when p is the center of a disk; for rectangles the closed form is the
// sum of four corner terms a·asinh(b/a) + b·asinh(a/b) over the four
// quadrant margins (see DESIGN.md errata). Crucially, the integral correctly
// scores a rectangle whose boundary touches p as nearly worthless, whereas
// the raw perimeter would happily pin the object on an edge and trigger an
// immediate update.
//
// The result is 0 when p lies outside r. It is monotone under rectangle
// inclusion for a fixed p, so maximal candidate rectangles remain optimal
// within each Ir-lp family.
func MeanExitChord(r Rect, p Point) float64 {
	if !r.Contains(p) {
		return 0
	}
	l := p.X - r.MinX
	rr := r.MaxX - p.X
	b := p.Y - r.MinY
	t := r.MaxY - p.Y
	return cornerChord(rr, t) + cornerChord(l, t) + cornerChord(l, b) + cornerChord(rr, b)
}

// cornerChord is ∫₀^{π/2} min(a/cosθ, b/sinθ) dθ = a·asinh(b/a) + b·asinh(a/b),
// computed as a·ln((b+h)/a) + b·ln((a+h)/b) with h = √(a²+b²): one square
// root shared by both terms instead of one inside each Asinh.
func cornerChord(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	h := math.Sqrt(a*a + b*b)
	return a*asinhLog(b, a, h) + b*asinhLog(a, b, h)
}

// cornerSlopes returns the partial derivatives of cornerChord(a, b):
// asinh(b/a) with respect to a and asinh(a/b) with respect to b, the very
// logs cornerChord weights by a and b. A zero margin has an infinite partial
// while the other margin is positive; a corner with both margins zero
// contributes nothing.
func cornerSlopes(a, b float64) (float64, float64) {
	switch {
	case a <= 0 && b <= 0:
		return 0, 0
	case a <= 0:
		return math.Inf(1), 0
	case b <= 0:
		return 0, math.Inf(1)
	}
	h := math.Sqrt(a*a + b*b)
	return asinhLog(b, a, h), asinhLog(a, b, h)
}

// asinhLog is asinh(x/y) = ln((x+h)/y) given h = √(x²+y²). For x < y/4 the
// log argument is near 1, so it is rewritten as 1 + (x + x²/(h+y))/y
// (h − y = x²/(h+y)) and taken with Log1p, which has no cancellation.
func asinhLog(x, y, h float64) float64 {
	if x < y/4 {
		return math.Log1p((x + x*x/(h+y)) / y)
	}
	return math.Log((x + h) / y)
}

// exitScoreSlope returns MeanExitChord(r, p) together with its derivative
// along a one-parameter rectangle family whose edges move at the rates dr
// (the derivatives of MinX, MinY, MaxX and MaxY, packed in a Rect). By the
// chain rule the slope is Σ margin rate × (sum of the margin's two corner
// partials), and those partials are the logs the score takes anyway, so one
// pass over the four corners yields both.
//
// A margin that rounding made slightly negative is clamped to 0 for the
// slope, while the score stays 0 because p is outside. A zero margin has an
// infinite partial, so the slope is ±Inf when that edge moves and the edge's
// term is 0 when it does not. Two zero margins moving in opposite directions
// (p on a corner that the family slides along) give a slope of 0, never NaN.
func exitScoreSlope(r, dr Rect, p Point) (float64, float64) {
	l := max(p.X-r.MinX, 0)
	rr := max(r.MaxX-p.X, 0)
	b := max(p.Y-r.MinY, 0)
	t := max(r.MaxY-p.Y, 0)
	neR, neT := cornerSlopes(rr, t)
	nwL, nwT := cornerSlopes(l, t)
	swL, swB := cornerSlopes(l, b)
	seR, seB := cornerSlopes(rr, b)

	f := 0.0
	if r.Contains(p) {
		f = corner(rr, t, neR, neT) + corner(l, t, nwL, nwT) + corner(l, b, swL, swB) + corner(rr, b, seR, seB)
	}
	g := edgeSlope(nwL+swL, -dr.MinX) + edgeSlope(neR+seR, dr.MaxX) +
		edgeSlope(swB+seB, -dr.MinY) + edgeSlope(neT+nwT, dr.MaxY)
	if math.IsNaN(g) {
		return f, 0
	}
	return f, g
}

// corner is cornerChord(a, b) from its two partials: a·∂a + b·∂b.
func corner(a, b, da, db float64) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	return a*da + b*db
}

// edgeSlope is one margin's share of the slope: its partial times its rate,
// and 0 for an edge that does not move even when the partial is infinite.
func edgeSlope(partial, rate float64) float64 {
	if rate == 0 {
		return 0
	}
	return partial * rate
}

// Objective scores a candidate safe region for an object; larger is better.
// It is a value, not a function: the object's location p and, for the
// steady-movement weighting of Section 6.2, its heading p − p_lst and the
// steadiness d. ExitObjective builds the monitor's default, the exact
// Theorem 5.1 integral, whose θ-slope along an Ir-lp family is known in
// closed form; the Ir-lp search uses that slope (see optimizeTheta).
type Objective struct {
	p       Point
	heading Point   // p − p_lst
	hn      float64 // |heading|
	d       float64 // steadiness in [0, 1]
}

// ExitObjective returns the safe-region objective for an object at p: the
// exact Theorem 5.1 integral. Larger values mean a longer expected time
// before the next source-initiated update.
func ExitObjective(p Point) Objective { return Objective{p: p} }

// WeightedExitObjective combines the exact exit integral with the
// steady-movement directional weighting of Section 6.2: the plain integral is
// scaled by the ratio λw/λ of the paper's weighted perimeter to the plain
// perimeter, preferring regions with room ahead of the current heading.
func WeightedExitObjective(plst, p Point, d float64) Objective {
	h := p.Sub(plst)
	return Objective{p: p, heading: h, hn: h.Norm(), d: d}
}

// weighted reports whether o applies the Section 6.2 weighting. Without it,
// o scores the plain exit integral.
func (o Objective) weighted() bool { return o.d != 0 && o.hn != 0 }

// Score returns o's value for the region r: 0 when r does not contain p.
func (o Objective) Score(r Rect) float64 {
	base := MeanExitChord(r, o.p)
	if base <= 0 || !o.weighted() {
		return base
	}
	per := r.Perimeter()
	if per <= 0 {
		return base
	}
	return base * o.weightedPerimeter(r) / per
}

// WeightedPerimeter returns the steady-movement weighted perimeter of r
// (Section 6.2), the factor behind WeightedExitObjective. plst is the
// previous reported location, p the current one, and d ∈ [0, 1] the
// steadiness parameter. The weighted perimeter of a rectangle with ordinary
// perimeter λ, center o, is approximated through a circle of equal
// perimeter:
//
//	λw = (1+D)·λ − (2Dλ/π)·arccos(2π·|po|·cosβ / λ)
//
// where β is the angle between the vector p→o and the heading p_lst→p.
func WeightedPerimeter(r Rect, plst, p Point, d float64) float64 {
	return WeightedExitObjective(plst, p, d).weightedPerimeter(r)
}

func (o Objective) weightedPerimeter(r Rect) float64 {
	lambda := r.Perimeter()
	if lambda <= 0 {
		return 0
	}
	if !o.weighted() {
		return lambda
	}
	po := r.Center().Sub(o.p)
	pod := po.Norm()
	cosBeta := 1.0
	if pod > 0 {
		cosBeta = (po.X*o.heading.X + po.Y*o.heading.Y) / (pod * o.hn)
	}
	arg := 2 * math.Pi * pod * cosBeta / lambda
	if arg > 1 {
		arg = 1
	} else if arg < -1 {
		arg = -1
	}
	return (1+o.d)*lambda - (2*o.d*lambda/math.Pi)*math.Acos(arg)
}
