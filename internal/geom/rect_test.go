package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRNormalizes(t *testing.T) {
	r := R(0.7, 0.9, 0.2, 0.1)
	want := Rect{0.2, 0.1, 0.7, 0.9}
	if r != want {
		t.Fatalf("R() = %v, want %v", r, want)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{0, 0, 2, 1}
	if got := r.Width(); got != 2 {
		t.Errorf("Width = %v, want 2", got)
	}
	if got := r.Height(); got != 1 {
		t.Errorf("Height = %v, want 1", got)
	}
	if got := r.Perimeter(); got != 6 {
		t.Errorf("Perimeter = %v, want 6", got)
	}
	if got := r.Area(); got != 2 {
		t.Errorf("Area = %v, want 2", got)
	}
	if got := r.Center(); got != Pt(1, 0.5) {
		t.Errorf("Center = %v, want (1,0.5)", got)
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{0, 0, 1, 1}
	cases := []struct {
		p    Point
		want bool
	}{
		{Pt(0.5, 0.5), true},
		{Pt(0, 0), true}, // closed rectangle includes the boundary
		{Pt(1, 1), true},
		{Pt(1.0001, 0.5), false},
		{Pt(0.5, -0.0001), false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRectIntersect(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	b := Rect{1, 1, 3, 3}
	got := a.Intersect(b)
	if got != (Rect{1, 1, 2, 2}) {
		t.Fatalf("Intersect = %v", got)
	}
	c := Rect{5, 5, 6, 6}
	if a.Intersect(c).IsValid() {
		t.Fatal("disjoint intersection should be invalid")
	}
	if a.Intersects(c) {
		t.Fatal("Intersects should be false for disjoint rects")
	}
	if !a.Intersects(Rect{2, 2, 3, 3}) {
		t.Fatal("touching rects intersect (closed semantics)")
	}
}

// TestRectIntersectUnionMatchMathMinMax checks Intersect and Union, which use
// the builtin min/max, bit for bit against math.Min/math.Max on every pair of
// special and ordinary values in every field. With no NaN argument the bits
// agree, ±0 and ±Inf included. With a NaN argument the builtins return NaN,
// where math.Max(+Inf, NaN) and math.Min(-Inf, NaN) return the infinity.
func TestRectIntersectUnionMatchMathMinMax(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -2.75,
		math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1030,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	fields := func(r Rect) [4]float64 { return [4]float64{r.MinX, r.MinY, r.MaxX, r.MaxY} }
	ops := []struct {
		name string
		got  func(r, s Rect) Rect
		lo   func(a, b float64) float64 // math reference for the Min fields
		hi   func(a, b float64) float64 // math reference for the Max fields
	}{
		{"Intersect", Rect.Intersect, math.Max, math.Min},
		{"Union", Rect.Union, math.Min, math.Max},
	}
	for _, op := range ops {
		for f := 0; f < 4; f++ {
			for _, a := range vals {
				for _, b := range vals {
					r := [4]float64{0.25, 0.125, 0.75, 0.875}
					s := [4]float64{0.5, -0.375, 0.625, 1.5}
					r[f], s[f] = a, b
					got := fields(op.got(Rect{r[0], r[1], r[2], r[3]}, Rect{s[0], s[1], s[2], s[3]}))
					for k := 0; k < 4; k++ {
						ref := op.lo
						if k >= 2 {
							ref = op.hi
						}
						want := ref(r[k], s[k])
						if math.IsNaN(r[k]) || math.IsNaN(s[k]) {
							if !math.IsNaN(got[k]) || !(math.IsNaN(want) || math.IsInf(want, 0)) {
								t.Errorf("%s field %d (%v, %v) = %v, math gives %v", op.name, k, r[k], s[k], got[k], want)
							}
						} else if math.Float64bits(got[k]) != math.Float64bits(want) {
							t.Errorf("%s field %d (%v, %v) = %v (%#x), math gives %v (%#x)",
								op.name, k, r[k], s[k], got[k], math.Float64bits(got[k]), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

func TestRectMinMaxDistPoint(t *testing.T) {
	r := Rect{1, 1, 3, 2}
	cases := []struct {
		p        Point
		min, max float64
	}{
		{Pt(2, 1.5), 0, math.Hypot(1, 0.5)},              // inside: min 0
		{Pt(0, 1.5), 1, math.Hypot(3, 0.5)},              // left of rect
		{Pt(0, 0), math.Hypot(1, 1), math.Hypot(3, 2)},   // below-left corner
		{Pt(2, 5), 3, math.Hypot(1, 4)},                  // above
		{Pt(4, 3), math.Hypot(1, 1), math.Hypot(3, 2)},   // above-right
		{Pt(1, 1), 0, math.Hypot(2, 1)},                  // on corner
		{Pt(3, 1.5), 0, math.Max(2, math.Hypot(2, 0.5))}, // on edge
	}
	for _, c := range cases {
		if got := r.MinDist(c.p); math.Abs(got-c.min) > 1e-12 {
			t.Errorf("MinDist(%v) = %v, want %v", c.p, got, c.min)
		}
		if got := r.MaxDist(c.p); math.Abs(got-c.max) > 1e-12 {
			t.Errorf("MaxDist(%v) = %v, want %v", c.p, got, c.max)
		}
	}
}

func TestRectRectDistances(t *testing.T) {
	a := Rect{0, 0, 1, 1}
	b := Rect{2, 0, 3, 1}
	if got := a.MinDistRect(b); got != 1 {
		t.Errorf("MinDistRect = %v, want 1", got)
	}
	if got := a.MinDistRect(a); got != 0 {
		t.Errorf("self MinDistRect = %v, want 0", got)
	}
	c := Rect{2, 3, 3, 4}
	if got := a.MinDistRect(c); math.Abs(got-math.Hypot(1, 2)) > 1e-12 {
		t.Errorf("diagonal MinDistRect = %v", got)
	}
	if got := a.MaxDistRect(b); math.Abs(got-math.Hypot(3, 1)) > 1e-12 {
		t.Errorf("MaxDistRect = %v", got)
	}
}

// Property: for random rects and points, sampling points inside the rect
// never produces a distance below MinDist or above MaxDist.
func TestMinMaxDistEnvelopeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(px, py, ax, ay, bx, by uint16) bool {
		p := Pt(float64(px)/65535, float64(py)/65535)
		r := R(float64(ax)/65535, float64(ay)/65535, float64(bx)/65535, float64(by)/65535)
		lo, hi := r.MinDist(p), r.MaxDist(p)
		for i := 0; i < 32; i++ {
			s := Pt(r.MinX+rng.Float64()*r.Width(), r.MinY+rng.Float64()*r.Height())
			d := p.Dist(s)
			if d < lo-1e-9 || d > hi+1e-9 {
				return false
			}
		}
		return lo <= hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: rect-rect min/max distances bound all pairwise point samples.
func TestRectRectDistEnvelopeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(a1, a2, a3, a4, b1, b2, b3, b4 uint16) bool {
		u := func(v uint16) float64 { return float64(v) / 65535 }
		ra := R(u(a1), u(a2), u(a3), u(a4))
		rb := R(u(b1), u(b2), u(b3), u(b4))
		lo, hi := ra.MinDistRect(rb), ra.MaxDistRect(rb)
		for i := 0; i < 16; i++ {
			s := Pt(ra.MinX+rng.Float64()*ra.Width(), ra.MinY+rng.Float64()*ra.Height())
			q := Pt(rb.MinX+rng.Float64()*rb.Width(), rb.MinY+rng.Float64()*rb.Height())
			d := s.Dist(q)
			if d < lo-1e-9 || d > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnionExpandClamp(t *testing.T) {
	a := Rect{0, 0, 1, 1}
	b := Rect{2, -1, 3, 0.5}
	if got := a.Union(b); got != (Rect{0, -1, 3, 1}) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Expand(0.5); got != (Rect{-0.5, -0.5, 1.5, 1.5}) {
		t.Errorf("Expand = %v", got)
	}
	if got := a.ClampPoint(Pt(5, -3)); got != Pt(1, 0) {
		t.Errorf("ClampPoint = %v", got)
	}
}

func TestPointHelpers(t *testing.T) {
	p := Pt(3, 4)
	if p.Norm() != 5 {
		t.Errorf("Norm = %v", p.Norm())
	}
	if got := p.Scale(2); got != Pt(6, 8) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Sub(Pt(1, 1)); got != Pt(2, 3) {
		t.Errorf("Sub = %v", got)
	}
	if got := Lerp(Pt(0, 0), Pt(2, 4), 0.25); got != Pt(0.5, 1) {
		t.Errorf("Lerp = %v", got)
	}
	if d := Pt(0, 0).Dist(Pt(3, 4)); d != 5 {
		t.Errorf("Dist = %v", d)
	}
	if d2 := Pt(0, 0).Dist2(Pt(3, 4)); d2 != 25 {
		t.Errorf("Dist2 = %v", d2)
	}
}
