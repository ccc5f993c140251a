package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Monte-Carlo reference for ∫ k(θ) dθ.
func monteCarloChord(r Rect, p Point, n int, rng *rand.Rand) float64 {
	sum := 0.0
	for i := 0; i < n; i++ {
		theta := 2 * math.Pi * rng.Float64()
		v := Pt(math.Cos(theta), math.Sin(theta))
		if t, ok := SegmentRectExit(r, p, v); ok {
			sum += t
		}
	}
	return sum * 2 * math.Pi / float64(n)
}

func TestMeanExitChordMatchesMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cases := []struct {
		r Rect
		p Point
	}{
		{Rect{0, 0, 1, 1}, Pt(0.5, 0.5)},
		{Rect{0, 0, 1, 1}, Pt(0.1, 0.9)},
		{Rect{0, 0, 2, 0.5}, Pt(1.7, 0.2)},
		{Rect{-1, -1, 1, 1}, Pt(0.99, -0.99)},
	}
	for _, c := range cases {
		got := MeanExitChord(c.r, c.p)
		want := monteCarloChord(c.r, c.p, 400000, rng)
		if math.Abs(got-want) > 0.02*want+1e-9 {
			t.Errorf("rect %v p %v: analytic %v vs MC %v", c.r, c.p, got, want)
		}
	}
}

func TestMeanExitChordCenteredSquare(t *testing.T) {
	// Closed form for the unit square center: 4·Q(1/2, 1/2) with
	// Q(a,a) = 2a·asinh(1).
	got := MeanExitChord(Rect{0, 0, 1, 1}, Pt(0.5, 0.5))
	want := 4 * (0.5*math.Asinh(1) + 0.5*math.Asinh(1))
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestMeanExitChordBoundaryIsWorthless(t *testing.T) {
	r := Rect{0, 0, 1, 1}
	interior := MeanExitChord(r, Pt(0.5, 0.5))
	onEdge := MeanExitChord(r, Pt(0.5, 0))
	onCorner := MeanExitChord(r, Pt(0, 0))
	if onEdge >= 0.75*interior {
		t.Fatalf("edge point should score clearly lower: %v vs %v", onEdge, interior)
	}
	if onCorner >= onEdge {
		t.Fatalf("corner should score lowest: %v vs %v", onCorner, onEdge)
	}
	if MeanExitChord(r, Pt(2, 2)) != 0 {
		t.Fatal("outside point scores 0")
	}
}

// Property: monotone under rectangle inclusion for a fixed interior point.
func TestMeanExitChordMonotoneProperty(t *testing.T) {
	f := func(px, py, grow uint16) bool {
		p := Pt(0.2+0.6*u16(px), 0.2+0.6*u16(py))
		small := Rect{p.X - 0.1, p.Y - 0.1, p.X + 0.1, p.Y + 0.1}
		g := 0.001 + 0.5*u16(grow)
		big := small.Expand(g)
		return MeanExitChord(big, p) >= MeanExitChord(small, p)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: translation invariance.
func TestMeanExitChordTranslationProperty(t *testing.T) {
	f := func(px, py, dx, dy uint16) bool {
		p := Pt(0.3+0.4*u16(px), 0.3+0.4*u16(py))
		r := Rect{0.1, 0.2, 0.9, 0.8}
		ox, oy := 10*u16(dx)-5, 10*u16(dy)-5
		moved := Rect{r.MinX + ox, r.MinY + oy, r.MaxX + ox, r.MaxY + oy}
		a := MeanExitChord(r, p)
		b := MeanExitChord(moved, p.Add(ox, oy))
		return math.Abs(a-b) < 1e-9*(1+a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestExitObjectiveRanksInteriorAboveBoundary(t *testing.T) {
	p := Pt(0.5, 0.5)
	obj := ExitObjective(p)
	centered := Rect{0.3, 0.3, 0.7, 0.7}
	pinned := Rect{0.5, 0.3, 0.9, 0.7} // same size, p on its left edge
	if obj.Score(centered) <= obj.Score(pinned) {
		t.Fatalf("centered %v should beat pinned %v", obj.Score(centered), obj.Score(pinned))
	}
}

func TestWeightedExitObjectiveForwardBias(t *testing.T) {
	p := Pt(0.5, 0.5)
	plst := Pt(0.45, 0.5) // heading east
	obj := WeightedExitObjective(plst, p, 0.8)
	ahead := Rect{0.45, 0.4, 0.75, 0.6}
	behind := Rect{0.25, 0.4, 0.55, 0.6}
	if obj.Score(ahead) <= obj.Score(behind) {
		t.Fatalf("forward region should win: %v vs %v", obj.Score(ahead), obj.Score(behind))
	}
	// Zero steadiness or zero heading degrade gracefully.
	if got := WeightedExitObjective(p, p, 0.8).Score(ahead); got <= 0 {
		t.Fatalf("no-heading weighted objective should still be positive: %v", got)
	}
	if WeightedExitObjective(plst, p, 0.8).Score(Rect{2, 2, 3, 3}) != 0 {
		t.Fatal("region not containing p scores 0")
	}
}

// The one-square-root form of cornerChord must agree with the textbook asinh
// form across the aspect ratios a quadrant margin pair can take, including
// the Log1p branch (b/a < 1/4 or a/b < 1/4).
func TestCornerChordMatchesAsinhForm(t *testing.T) {
	worst := 0.0
	for _, a := range []float64{1e-9, 1e-2, 1, 1e6} {
		for e := -14.0; e <= 14; e += 0.125 {
			b := a * math.Pow(10, e)
			want := a*math.Asinh(b/a) + b*math.Asinh(a/b)
			got := cornerChord(a, b)
			rel := math.Abs(got-want) / want
			worst = math.Max(worst, rel)
			if rel > 1e-14 {
				t.Errorf("cornerChord(%g, %g) = %.17g, asinh form %.17g (rel err %.3g)", a, b, got, want, rel)
			}
		}
	}
	t.Logf("worst relative error %.3g", worst)
}

func TestCornerChordLimits(t *testing.T) {
	if cornerChord(0, 1) != 0 || cornerChord(1, 0) != 0 || cornerChord(0, 0) != 0 {
		t.Fatal("degenerate corner terms must vanish")
	}
	// Symmetry.
	if math.Abs(cornerChord(0.3, 0.7)-cornerChord(0.7, 0.3)) > 1e-12 {
		t.Fatal("corner term must be symmetric")
	}
}

// The slope exitScoreSlope reads from the corner logs must match a central
// difference of MeanExitChord along every Ir-lp family, and its score must be
// MeanExitChord bit for bit.
func TestExitScoreSlopeMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	const h = 1e-6
	for kind := inscribed; kind <= ringV; kind++ {
		checked := 0
		for checked < 2000 {
			q, rad := Pt(rng.Float64(), rng.Float64()), 0.05+rng.Float64()
			fam := family{
				kind:  kind,
				q:     q,
				r:     rad,
				inner: 0.05 * rng.Float64(),
				t:     Pt(q.X+rad+0.1+rng.Float64(), q.Y+rad+0.1+rng.Float64()),
			}
			theta := 0.05 + (math.Pi/2-0.1)*rng.Float64()
			r, dr := fam.at(theta)
			p := Pt(r.MinX+r.Width()*(0.1+0.8*rng.Float64()), r.MinY+r.Height()*(0.1+0.8*rng.Float64()))
			if !fam.rect(theta-h).Contains(p) || !fam.rect(theta+h).Contains(p) {
				continue
			}
			checked++
			f, g := exitScoreSlope(r, dr, p)
			if want := MeanExitChord(r, p); f != want {
				t.Fatalf("family %d θ %v: score %.17g, MeanExitChord %.17g", kind, theta, f, want)
			}
			fd := (MeanExitChord(fam.rect(theta+h), p) - MeanExitChord(fam.rect(theta-h), p)) / (2 * h)
			if math.Abs(g-fd) > 1e-5*(1+math.Abs(fd)) {
				t.Errorf("family %d θ %v: slope %.10g, central difference %.10g", kind, theta, g, fd)
			}
		}
	}
}

// A margin of zero has an infinite partial, so the slope is ±Inf in the
// direction its edge moves, 0 from an edge that does not move, and never NaN.
func TestExitScoreSlopeZeroMargins(t *testing.T) {
	if da, db := cornerSlopes(0, 1); !math.IsInf(da, 1) || db != 0 {
		t.Fatalf("cornerSlopes(0, 1) = %v, %v; want +Inf, 0", da, db)
	}
	if da, db := cornerSlopes(1, 0); da != 0 || !math.IsInf(db, 1) {
		t.Fatalf("cornerSlopes(1, 0) = %v, %v; want 0, +Inf", da, db)
	}
	if da, db := cornerSlopes(0, 0); da != 0 || db != 0 {
		t.Fatalf("cornerSlopes(0, 0) = %v, %v; want 0, 0", da, db)
	}
	r := Rect{0, 0, 1, 1}
	onRight := Pt(1, 0.5) // the right margin is 0
	for _, c := range []struct {
		name string
		r    Rect
		p    Point
		dr   Rect
		want float64 // ±Inf, or 0 for "finite"
	}{
		{"right edge moving out", r, onRight, Rect{0, 0, 1, 0}, math.Inf(1)},
		{"right edge moving in", r, onRight, Rect{0, 0, -1, 0}, math.Inf(-1)},
		{"left edge moving out", r, Pt(0, 0.5), Rect{-1, 0, 0, 0}, math.Inf(1)},
		{"bottom edge moving in", r, Pt(0.5, 0), Rect{0, 1, 0, 0}, math.Inf(-1)},
		{"top edge moving out", r, Pt(0.5, 1), Rect{0, 0, 0, 1}, math.Inf(1)},
		{"zero margin, still edge", r, onRight, Rect{-1, 0.5, 0, -0.5}, 0},
		{"corner sliding along the arc", r, Pt(1, 1), Rect{0, 0, 1, -1}, 0},
		{"p just outside", r, Pt(1+1e-12, 0.5), Rect{0, 0, 1, 0}, math.Inf(1)},
	} {
		f, g := exitScoreSlope(c.r, c.dr, c.p)
		if math.IsNaN(g) || math.IsNaN(f) {
			t.Errorf("%s: score %v, slope %v: NaN", c.name, f, g)
			continue
		}
		if math.IsInf(c.want, 0) && g != c.want {
			t.Errorf("%s: slope %v, want %v", c.name, g, c.want)
		}
		if c.want == 0 && math.IsInf(g, 0) {
			t.Errorf("%s: slope %v, want finite", c.name, g)
		}
		if f != MeanExitChord(c.r, c.p) {
			t.Errorf("%s: score %v, MeanExitChord %v", c.name, f, MeanExitChord(c.r, c.p))
		}
	}
}
