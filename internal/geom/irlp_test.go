package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

var unitCell = Rect{0, 0, 1, 1}

// --- IrlpCircle -------------------------------------------------------------

func TestIrlpCircleCentered(t *testing.T) {
	// p at the center: the optimum is the inscribed square (θ = π/4).
	c := Circle{Pt(0.5, 0.5), 0.3}
	got := IrlpCircle(c, c.Center, Rect{-1, -1, 2, 2}, Perimeter)
	side := 0.3 * math.Sqrt2
	if math.Abs(got.Width()-side) > 1e-9 || math.Abs(got.Height()-side) > 1e-9 {
		t.Fatalf("inscribed square expected, got %v", got)
	}
	if math.Abs(got.Perimeter()-4*side) > 1e-9 {
		t.Fatalf("perimeter %v, want %v", got.Perimeter(), 4*side)
	}
}

func TestIrlpCircleOffCenterPoint(t *testing.T) {
	// p near the right edge forces θ ≥ θx > π/4: a tall thin rectangle.
	c := Circle{Pt(0.5, 0.5), 0.3}
	p := Pt(0.79, 0.5)
	got := IrlpCircle(c, p, Rect{-1, -1, 2, 2}, Perimeter)
	if !got.Contains(p) {
		t.Fatalf("region %v does not contain p %v", got, p)
	}
	if !c.ContainsRect(got) {
		t.Fatalf("region %v exceeds circle", got)
	}
	// Analytic: θ = arcsin(0.29/0.3); hw = 0.29.
	if math.Abs(got.Width()-0.58) > 1e-9 {
		t.Fatalf("width = %v, want 0.58", got.Width())
	}
}

func TestIrlpCirclePOutside(t *testing.T) {
	c := Circle{Pt(0.5, 0.5), 0.1}
	got := IrlpCircle(c, Pt(0.9, 0.9), unitCell, Perimeter)
	if got.Area() != 0 {
		t.Fatalf("expected degenerate rect for p outside, got %v", got)
	}
}

func TestIrlpCircleProperty(t *testing.T) {
	f := func(cx, cy, rad, ang, frac uint16) bool {
		c := Circle{Pt(0.2+0.6*u16(cx), 0.2+0.6*u16(cy)), 0.01 + 0.2*u16(rad)}
		// random p strictly inside the circle
		a := 2 * math.Pi * u16(ang)
		rr := c.R * 0.999 * u16(frac)
		p := Pt(c.Center.X+rr*math.Cos(a), c.Center.Y+rr*math.Sin(a))
		cell := Rect{-1, -1, 2, 2}
		got := IrlpCircle(c, p, cell, Perimeter)
		return got.Contains(p) && c.ContainsRect(got.Expand(-1e-9)) && got.Perimeter() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// --- IrlpCircleComplement ---------------------------------------------------

func TestIrlpComplementDisjointCircle(t *testing.T) {
	c := Circle{Pt(5, 5), 0.5}
	got := IrlpCircleComplement(c, Pt(0.5, 0.5), unitCell, Perimeter)
	if got != unitCell {
		t.Fatalf("circle far away: whole cell expected, got %v", got)
	}
}

func TestIrlpComplementStrip(t *testing.T) {
	// Circle at the cell center; p well above it: the full-width strip above
	// the circle must win (perimeter 2(1 + 0.3) = 2.6 beats any corner rect).
	c := Circle{Pt(0.5, 0.5), 0.2}
	p := Pt(0.5, 0.9)
	got := IrlpCircleComplement(c, p, unitCell, Perimeter)
	want := Rect{0, 0.7, 1, 1}
	if math.Abs(got.MinY-want.MinY) > 1e-9 || got.MinX != 0 || got.MaxX != 1 || got.MaxY != 1 {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestIrlpComplementCorner(t *testing.T) {
	// p diagonally NE of the circle, not clear of it on either axis: the arc
	// family applies.
	c := Circle{Pt(0.4, 0.4), 0.3}
	p := Pt(0.62, 0.62)
	got := IrlpCircleComplement(c, p, unitCell, Perimeter)
	if !got.Contains(p) {
		t.Fatalf("region %v does not contain %v", got, p)
	}
	if c.IntersectsRect(got.Expand(-1e-9)) {
		t.Fatalf("region %v overlaps circle", got)
	}
}

func TestIrlpComplementProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(cx, cy, rad, px, py uint16) bool {
		c := Circle{Pt(u16(cx), u16(cy)), 0.05 + 0.3*u16(rad)}
		p := Pt(u16(px), u16(py))
		if c.Contains(p) {
			return true // precondition: p outside quarantine circle
		}
		got := IrlpCircleComplement(c, p, unitCell, Perimeter)
		if !got.Contains(p) || !got.IsValid() {
			return false
		}
		if !unitCell.Expand(1e-9).ContainsRect(got) {
			return false
		}
		// Sample the region: no sampled point may fall in the circle.
		for i := 0; i < 24; i++ {
			s := Pt(got.MinX+rng.Float64()*got.Width(), got.MinY+rng.Float64()*got.Height())
			if c.Center.Dist(s) < c.R-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Fatal(err)
	}
}

// The complement Ir-lp must prefer interval endpoints over the paper's
// (erroneous) θ=π/4 interior optimum; see DESIGN.md errata. With a symmetric
// configuration both endpoints beat π/4.
func TestIrlpComplementNotParkedAtQuarterPi(t *testing.T) {
	c := Circle{Pt(0, 0), 0.5}
	cell := Rect{-1, -1, 1, 1}
	p := Pt(0.45, 0.45) // outside the circle, diagonal
	got := IrlpCircleComplement(c, p, cell, Perimeter)
	// θ=π/4 rectangle would be [0.354,1]x[0.354,1] with perimeter ~2.59.
	quarter := 2 * ((1 - 0.5/math.Sqrt2) * 2)
	if got.Perimeter() <= quarter+1e-9 {
		t.Fatalf("perimeter %v not better than θ=π/4 rect %v", got.Perimeter(), quarter)
	}
}

// --- IrlpRing ---------------------------------------------------------------

func TestIrlpRingDegeneratesToCircle(t *testing.T) {
	rg := Ring{Pt(0.5, 0.5), 0, 0.3}
	got := IrlpRing(rg, Pt(0.5, 0.5), Rect{-1, -1, 2, 2}, Perimeter)
	side := 0.3 * math.Sqrt2
	if math.Abs(got.Width()-side) > 1e-9 {
		t.Fatalf("expected inscribed square of outer circle, got %v", got)
	}
}

func TestIrlpRingBelow(t *testing.T) {
	rg := Ring{Pt(0.5, 0.5), 0.05, 0.4}
	p := Pt(0.5, 0.44) // just below the inner circle, so θ=arctan2 is feasible
	got := IrlpRing(rg, p, Rect{-1, -1, 2, 2}, Perimeter)
	if !got.Contains(p) {
		t.Fatalf("region %v does not contain %v", got, p)
	}
	// Optimal layout-H at θ=arctan2: perimeter 4R·sinθ + 2(R·cosθ − r).
	th := math.Atan(2.0)
	want := 4*0.4*math.Sin(th) + 2*(0.4*math.Cos(th)-0.05)
	if math.Abs(got.Perimeter()-want) > 1e-6 {
		t.Fatalf("perimeter %v, want %v", got.Perimeter(), want)
	}
}

func TestIrlpRingDiagonalGap(t *testing.T) {
	// dx < r and dy < r: neither paper layout contains p; the radial-box
	// fallback must produce a valid region.
	rg := Ring{Pt(0.5, 0.5), 0.2, 0.5}
	p := Pt(0.65, 0.65) // dx=dy=0.15 < 0.2, d≈0.212 > 0.2
	if !rg.Contains(p) {
		t.Fatal("test setup: p must be inside the ring")
	}
	got := IrlpRing(rg, p, Rect{-1, -1, 2, 2}, Perimeter)
	if !got.Contains(p) {
		t.Fatalf("region %v does not contain %v", got, p)
	}
	if got.Area() <= 0 {
		t.Fatalf("fallback should yield non-degenerate rect, got %v", got)
	}
}

func TestIrlpRingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(cx, cy, r1, r2, ang, frac uint16) bool {
		inner := 0.05 + 0.2*u16(r1)
		outer := inner + 0.05 + 0.3*u16(r2)
		rg := Ring{Pt(u16(cx), u16(cy)), inner, outer}
		a := 2 * math.Pi * u16(ang)
		d := inner + (outer-inner)*u16(frac)
		p := Pt(rg.Center.X+d*math.Cos(a), rg.Center.Y+d*math.Sin(a))
		cell := Rect{-2, -2, 3, 3}
		got := IrlpRing(rg, p, cell, Perimeter)
		if !got.Contains(p) || !got.IsValid() {
			return false
		}
		// Every sampled point of the region must lie inside the ring.
		for i := 0; i < 24; i++ {
			s := Pt(got.MinX+rng.Float64()*got.Width(), got.MinY+rng.Float64()*got.Height())
			dd := rg.Center.Dist(s)
			if dd < inner-1e-9 || dd > outer+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Fatal(err)
	}
}

// --- θ search ---------------------------------------------------------------

// The golden-section search stopped at √ε must build valid regions with at
// most 44 objective evaluations per optimizeTheta call, and regions as good
// as the 48-round ternary reference's (irlp_ref_test.go). Under ExitObjective, the monitor's
// default, that holds case by case. WeightedExitObjective is not unimodal
// along θ: the clamped arccos puts cusps on the curve, and the complement
// is optimized on the enlarged cell before clipping, so when two near-equal
// peaks compete either search may pick the one that clips worse. Neither
// search dominates there; on four seeds the new one lost 30 and won 32 of
// 204k such cases. The weighted bound is therefore a rare-loss rate plus an
// unchanged score total.
func TestOptimizeThetaAgainstReference(t *testing.T) {
	const casesPer = 17000 // × 3 constructions × 2 objectives = 102k cases
	rng := rand.New(rand.NewSource(25))
	evals, maxEvals := 0, 0
	counting := func(obj Objective) Objective {
		return func(r Rect) float64 { evals++; return obj(r) }
	}

	// The widest bracket any construction can pass is [0, π/2].
	c := Circle{Pt(0.5, 0.5), 0.3}
	mk := func(theta float64) Rect {
		hw, hh := c.R*math.Sin(theta), c.R*math.Cos(theta)
		return Rect{c.Center.X - hw, c.Center.Y - hh, c.Center.X + hw, c.Center.Y + hh}
	}
	optimizeTheta(0, math.Pi/2, mk, counting(ExitObjective(c.Center)), canonicalize(c.Center, c.Center), math.Pi/4)
	if evals > 44 {
		t.Fatalf("optimizeTheta over [0, π/2] made %d evaluations, want ≤ 44", evals)
	}

	failures := 0
	for kind, name := range []string{"IrlpCircle", "IrlpCircleComplement", "IrlpRing"} {
		for _, weighted := range []bool{false, true} {
			losses, sumGot, sumRef := 0, 0.0, 0.0
			for i := 0; i < casesPer && failures < 10; i++ {
				p := Pt(rng.Float64(), rng.Float64())
				side := 0.01 + 0.99*rng.Float64()
				lx, ly := side*rng.Float64(), side*rng.Float64()
				cell := Rect{p.X - lx, p.Y - ly, p.X - lx + side, p.Y - ly + side}
				q := Pt(1.4*rng.Float64()-0.2, 1.4*rng.Float64()-0.2)
				d := q.Dist(p)
				obj := ExitObjective(p)
				if weighted {
					a := 2 * math.Pi * rng.Float64()
					obj = WeightedExitObjective(Pt(p.X-0.01*math.Cos(a), p.Y-0.01*math.Sin(a)), p, 0.5)
				}

				var got, ref Rect
				var inShape bool
				evals = 0
				switch kind {
				case 0:
					c := Circle{q, d / (0.001 + 0.999*rng.Float64())}
					got, ref = IrlpCircle(c, p, cell, counting(obj)), refIrlpCircle(c, p, cell, obj)
					inShape = got.MaxDist(q) <= c.R+1e-9
					// IrlpCircle scores candidates only inside its one optimizeTheta call.
					maxEvals = max(maxEvals, evals)
				case 1:
					c := Circle{q, d * rng.Float64()}
					got, ref = IrlpCircleComplement(c, p, cell, obj), refIrlpCircleComplement(c, p, cell, obj)
					inShape = got.MinDist(q) >= c.R-1e-9
				default:
					rg := Ring{q, d * rng.Float64(), d / (0.001 + 0.999*rng.Float64())}
					got, ref = IrlpRing(rg, p, cell, obj), refIrlpRing(rg, p, cell, obj)
					inShape = got.MaxDist(q) <= rg.Outer+1e-9 && got.MinDist(q) >= rg.Inner-1e-9
				}

				if !got.IsValid() || !got.Contains(p) || !cell.ContainsRect(got) || !inShape {
					t.Errorf("%s (weighted %v) case %d: invalid region %v for p %v, cell %v", name, weighted, i, got, p, cell)
					failures++
				}
				gs, rs := obj(got), obj(ref)
				sumGot, sumRef = sumGot+gs, sumRef+rs
				if gs >= rs-max(1e-6*rs, 1e-9) {
					continue
				}
				losses++
				if !weighted {
					t.Errorf("%s case %d: score %.12g below reference %.12g (region %v, reference %v)",
						name, i, gs, rs, got, ref)
					failures++
				}
			}
			if weighted && (losses > casesPer/1000 || sumGot < sumRef*(1-1e-5)) {
				t.Errorf("%s (weighted): %d of %d regions score below the reference; score total %.9g of the reference's",
					name, losses, casesPer, sumGot/sumRef)
			}
		}
	}
	if maxEvals > 44 {
		t.Fatalf("IrlpCircle made up to %d objective evaluations in one optimizeTheta call, want ≤ 44", maxEvals)
	}
}

// --- IrlpRectComplement -----------------------------------------------------

func TestIrlpRectComplementStrips(t *testing.T) {
	q := Rect{0.4, 0.4, 0.6, 0.6}
	cases := []struct {
		p    Point
		want Rect
	}{
		{Pt(0.2, 0.5), Rect{0, 0, 0.4, 1}}, // left strip
		{Pt(0.8, 0.5), Rect{0.6, 0, 1, 1}}, // right strip
		{Pt(0.5, 0.2), Rect{0, 0, 1, 0.4}}, // bottom strip
		{Pt(0.5, 0.9), Rect{0, 0.6, 1, 1}}, // top strip
	}
	for _, c := range cases {
		got := IrlpRectComplement(q, c.p, unitCell, Perimeter)
		if got != c.want {
			t.Errorf("p=%v: got %v, want %v", c.p, got, c.want)
		}
	}
}

func TestIrlpRectComplementCornerPointPicksBest(t *testing.T) {
	// p in the corner area: two strips contain it; the longer-perimeter one
	// wins. Query near the left edge → right strip is nearly the whole cell.
	q := Rect{0, 0.4, 0.2, 0.6}
	p := Pt(0.9, 0.9)
	got := IrlpRectComplement(q, p, unitCell, Perimeter)
	if got != (Rect{0.2, 0, 1, 1}) {
		t.Fatalf("got %v, want right strip", got)
	}
}

func TestIrlpRectComplementQueryOutsideCell(t *testing.T) {
	q := Rect{2, 2, 3, 3}
	got := IrlpRectComplement(q, Pt(0.5, 0.5), unitCell, Perimeter)
	if got != unitCell {
		t.Fatalf("got %v, want whole cell", got)
	}
}

func TestIrlpRectComplementProperty(t *testing.T) {
	f := func(q1, q2, q3, q4, px, py uint16) bool {
		q := R(u16(q1), u16(q2), u16(q3), u16(q4))
		p := Pt(u16(px), u16(py))
		if q.Contains(p) {
			return true
		}
		got := IrlpRectComplement(q, p, unitCell, Perimeter)
		if !got.Contains(p) {
			return false
		}
		inter := got.Intersect(q)
		// Strips may share a boundary edge with q but no interior.
		return !inter.IsValid() || inter.Area() < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Fatal(err)
	}
}

// --- WeightedPerimeter (§6.2) -----------------------------------------------

func TestWeightedPerimeterAtCenterEqualsPlain(t *testing.T) {
	r := Rect{0, 0, 0.4, 0.2}
	p := r.Center()
	obj := WeightedPerimeter(Pt(-1, 0.1), p, 0.5)
	if math.Abs(obj(r)-r.Perimeter()) > 1e-9 {
		t.Fatalf("weighted %v != plain %v at center", obj(r), r.Perimeter())
	}
}

func TestWeightedPerimeterFavorsForwardRegion(t *testing.T) {
	// Heading east: a region whose center is ahead of p must score higher
	// than the mirror region behind p.
	p := Pt(0.5, 0.5)
	plst := Pt(0.4, 0.5)
	obj := WeightedPerimeter(plst, p, 0.8)
	ahead := Rect{0.5, 0.45, 0.7, 0.55}
	behind := Rect{0.3, 0.45, 0.5, 0.55}
	if obj(ahead) <= obj(behind) {
		t.Fatalf("ahead %v should beat behind %v", obj(ahead), obj(behind))
	}
	if obj(ahead) <= ahead.Perimeter() {
		t.Fatalf("forward region should exceed plain perimeter")
	}
}

func TestWeightedPerimeterZeroSteadiness(t *testing.T) {
	obj := WeightedPerimeter(Pt(0, 0), Pt(0.1, 0), 0)
	r := Rect{0, 0, 0.3, 0.1}
	if obj(r) != r.Perimeter() {
		t.Fatalf("D=0 must reduce to plain perimeter")
	}
}

func TestIrlpCircleWeightedStaysValid(t *testing.T) {
	c := Circle{Pt(0.5, 0.5), 0.25}
	p := Pt(0.55, 0.45)
	obj := WeightedPerimeter(Pt(0.4, 0.45), p, 0.5)
	got := IrlpCircle(c, p, Rect{-1, -1, 2, 2}, obj)
	if !got.Contains(p) || !c.ContainsRect(got.Expand(-1e-9)) {
		t.Fatalf("weighted Ir-lp invalid: %v", got)
	}
}

// --- motion -----------------------------------------------------------------

func TestSegmentRectExit(t *testing.T) {
	r := Rect{0, 0, 1, 1}
	if tt, ok := SegmentRectExit(r, Pt(0.5, 0.5), Pt(1, 0)); !ok || math.Abs(tt-0.5) > 1e-12 {
		t.Fatalf("exit = %v,%v", tt, ok)
	}
	if tt, ok := SegmentRectExit(r, Pt(0.5, 0.5), Pt(-1, -2)); !ok || math.Abs(tt-0.25) > 1e-12 {
		t.Fatalf("exit = %v,%v", tt, ok)
	}
	if _, ok := SegmentRectExit(r, Pt(0.5, 0.5), Pt(0, 0)); ok {
		t.Fatal("stationary point never exits")
	}
	if _, ok := SegmentRectExit(r, Pt(2, 2), Pt(1, 0)); ok {
		t.Fatal("outside start: not an exit")
	}
}

func TestSegmentRectEnter(t *testing.T) {
	r := Rect{1, 1, 2, 2}
	if tt, ok := SegmentRectEnter(r, Pt(0, 1.5), Pt(1, 0)); !ok || math.Abs(tt-1) > 1e-12 {
		t.Fatalf("enter = %v,%v", tt, ok)
	}
	if tt, ok := SegmentRectEnter(r, Pt(1.5, 1.5), Pt(1, 0)); !ok || tt != 0 {
		t.Fatalf("inside start: enter = %v,%v", tt, ok)
	}
	if _, ok := SegmentRectEnter(r, Pt(0, 0), Pt(-1, 0)); ok {
		t.Fatal("moving away never enters")
	}
	if _, ok := SegmentRectEnter(r, Pt(0, 0), Pt(0, 1)); ok {
		t.Fatal("parallel miss never enters")
	}
}

func TestSegmentCircleExit(t *testing.T) {
	c := Circle{Pt(0, 0), 1}
	if tt, ok := SegmentCircleExit(c, Pt(0, 0), Pt(1, 0)); !ok || math.Abs(tt-1) > 1e-12 {
		t.Fatalf("exit = %v,%v", tt, ok)
	}
	if tt, ok := SegmentCircleExit(c, Pt(0.5, 0), Pt(1, 0)); !ok || math.Abs(tt-0.5) > 1e-12 {
		t.Fatalf("exit = %v,%v", tt, ok)
	}
	if _, ok := SegmentCircleExit(c, Pt(2, 0), Pt(1, 0)); ok {
		t.Fatal("outside start")
	}
	if _, ok := SegmentCircleExit(c, Pt(0, 0), Pt(0, 0)); ok {
		t.Fatal("stationary")
	}
}

func u16(v uint16) float64 { return float64(v) / 65535 }
