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
	return asinhTerm(b, a, h) + asinhTerm(a, b, h)
}

// asinhTerm is y·asinh(x/y) = y·ln((x+h)/y) given h = √(x²+y²). For x < y/4
// the log argument is near 1, so it is rewritten as 1 + (x + x²/(h+y))/y
// (h − y = x²/(h+y)) and taken with Log1p, which has no cancellation.
func asinhTerm(x, y, h float64) float64 {
	if x < y/4 {
		return y * math.Log1p((x+x*x/(h+y))/y)
	}
	return y * math.Log((x+h)/y)
}

// ExitObjective returns the safe-region scoring function for an object at p:
// the exact Theorem 5.1 integral. Larger values mean a longer expected time
// before the next source-initiated update.
func ExitObjective(p Point) Objective {
	return func(r Rect) float64 { return MeanExitChord(r, p) }
}

// WeightedExitObjective combines the exact exit integral with the
// steady-movement directional weighting of Section 6.2: the plain integral is
// scaled by the ratio λw/λ of the paper's weighted perimeter to the plain
// perimeter, preferring regions with room ahead of the current heading.
func WeightedExitObjective(plst, p Point, d float64) Objective {
	wp := WeightedPerimeter(plst, p, d)
	return func(r Rect) float64 {
		base := MeanExitChord(r, p)
		if base <= 0 {
			return 0
		}
		per := r.Perimeter()
		if per <= 0 {
			return base
		}
		return base * wp(r) / per
	}
}
