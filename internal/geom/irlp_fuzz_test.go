package geom

import (
	"math"
	"testing"
)

// sanitize maps an arbitrary float into [0, 1), rejecting non-finite input.
func sanitize(v float64) (float64, bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false
	}
	v = math.Mod(math.Abs(v), 1)
	return v, true
}

// FuzzIrlpCircle cross-checks the Proposition 5.2 inscribed-rectangle
// construction against its defining properties and a brute-force sampler over
// the same rectangle family: the result must contain p, stay inside the disk
// and the cell, and its exit integral (MeanExitChord) must not be beaten by
// any sampled inscribed rectangle that also contains p.
func FuzzIrlpCircle(f *testing.F) {
	f.Add(0.5, 0.5, 0.25, 0.3, 0.7)
	f.Add(0.4, 0.6, 0.1, 0.99, 0.01)
	f.Add(0.35, 0.35, 0.02, 0.5, 0.5)
	f.Fuzz(func(t *testing.T, cx, cy, cr, px, py float64) {
		vals := [5]*float64{&cx, &cy, &cr, &px, &py}
		for _, v := range vals {
			s, ok := sanitize(*v)
			if !ok {
				t.Skip()
			}
			*v = s
		}
		cell := R(0, 0, 1, 1)
		// Keep the disk strictly inside the cell so clipping cannot shrink the
		// optimum; the sampler below assumes the unclipped family.
		c := Circle{Center: Pt(0.3+0.4*cx, 0.3+0.4*cy), R: 0.02 + 0.27*cr}
		p := Pt(px, py)

		got := IrlpCircle(c, p, cell, ExitObjective(p))
		if !got.IsValid() {
			t.Fatalf("IrlpCircle(%v, %v) returned invalid rect %v", c, p, got)
		}
		if !got.Contains(p) {
			t.Fatalf("IrlpCircle(%v, %v) = %v does not contain p", c, p, got)
		}
		if !cell.ContainsRect(got) {
			t.Fatalf("IrlpCircle(%v, %v) = %v escapes the cell", c, p, got)
		}
		if !c.Contains(p) {
			return // degenerate branch: rectangle collapses to p
		}
		if d := got.MaxDist(c.Center); d > c.R+1e-9 {
			t.Fatalf("IrlpCircle(%v, %v) = %v leaves the disk: max dist %g > r %g", c, p, got, d, c.R)
		}
		// Brute-force sampler over the inscribed family: center-symmetric
		// rectangles with corner at angle theta on the circle.
		best := 0.0
		for i := 0; i <= 256; i++ {
			theta := float64(i) / 256 * math.Pi / 2
			hw := c.R * math.Sin(theta)
			hh := c.R * math.Cos(theta)
			r := Rect{c.Center.X - hw, c.Center.Y - hh, c.Center.X + hw, c.Center.Y + hh}
			if r.Contains(p) {
				best = max(best, MeanExitChord(r, p))
			}
		}
		if s := MeanExitChord(got, p); s < best-1e-9*(1+best) {
			t.Fatalf("IrlpCircle(%v, %v) exit integral %g beaten by sampled inscribed rect %g",
				c, p, s, best)
		}
	})
}

// FuzzIrlpCircleComplement checks the Proposition 5.4 construction for
// non-members: the result must contain p, stay inside the cell, and avoid the
// interior of the disk.
func FuzzIrlpCircleComplement(f *testing.F) {
	f.Add(0.5, 0.5, 0.2, 0.9, 0.9)
	f.Add(0.3, 0.7, 0.05, 0.1, 0.1)
	f.Add(0.6, 0.4, 0.3, 0.01, 0.99)
	f.Fuzz(func(t *testing.T, cx, cy, cr, px, py float64) {
		vals := [5]*float64{&cx, &cy, &cr, &px, &py}
		for _, v := range vals {
			s, ok := sanitize(*v)
			if !ok {
				t.Skip()
			}
			*v = s
		}
		cell := R(0, 0, 1, 1)
		c := Circle{Center: Pt(cx, cy), R: 0.01 + 0.4*cr}
		p := Pt(px, py)
		if c.Contains(p) {
			t.Skip() // the complement construction is specified for outside points
		}

		got := IrlpCircleComplement(c, p, cell, ExitObjective(p))
		if !got.IsValid() {
			t.Fatalf("IrlpCircleComplement(%v, %v) returned invalid rect %v", c, p, got)
		}
		if !got.Contains(p) {
			t.Fatalf("IrlpCircleComplement(%v, %v) = %v does not contain p", c, p, got)
		}
		if !cell.ContainsRect(got) {
			t.Fatalf("IrlpCircleComplement(%v, %v) = %v escapes the cell", c, p, got)
		}
		if d := got.MinDist(c.Center); d < c.R-1e-9 {
			t.Fatalf("IrlpCircleComplement(%v, %v) = %v intrudes into the disk: min dist %g < r %g",
				c, p, got, d, c.R)
		}
	})
}

// FuzzIrlpRing checks the Proposition 5.5 construction for order-sensitive
// kNN members: the result must contain p, stay inside the cell, and stay
// within the annulus — no farther than Outer and no nearer than Inner.
func FuzzIrlpRing(f *testing.F) {
	f.Add(0.5, 0.5, 0.2, 0.6, 0.5, 0.8)
	f.Add(0.4, 0.6, 0.5, 0.1, 0.62, 0.62)  // beside the inner disk: layout V
	f.Add(0.5, 0.5, 0.5, 0.58, 0.65, 0.65) // diagonal gap: radial box only
	f.Fuzz(func(t *testing.T, cx, cy, ci, co, px, py float64) {
		vals := [6]*float64{&cx, &cy, &ci, &co, &px, &py}
		for _, v := range vals {
			s, ok := sanitize(*v)
			if !ok {
				t.Skip()
			}
			*v = s
		}
		cell := R(0, 0, 1, 1)
		inner := 0.4 * ci
		rg := Ring{Center: Pt(cx, cy), Inner: inner, Outer: inner + 0.01 + 0.5*co}
		p := Pt(px, py)
		if !rg.Contains(p) {
			t.Skip() // the ring construction is specified for points in the annulus
		}

		got := IrlpRing(rg, p, cell, ExitObjective(p))
		if !got.IsValid() {
			t.Fatalf("IrlpRing(%v, %v) returned invalid rect %v", rg, p, got)
		}
		if !got.Contains(p) {
			t.Fatalf("IrlpRing(%v, %v) = %v does not contain p", rg, p, got)
		}
		if !cell.ContainsRect(got) {
			t.Fatalf("IrlpRing(%v, %v) = %v escapes the cell", rg, p, got)
		}
		if d := got.MaxDist(rg.Center); d > rg.Outer+1e-9 {
			t.Fatalf("IrlpRing(%v, %v) = %v leaves the outer disk: max dist %g > %g", rg, p, got, d, rg.Outer)
		}
		if d := got.MinDist(rg.Center); d < rg.Inner-1e-9 {
			t.Fatalf("IrlpRing(%v, %v) = %v intrudes into the inner disk: min dist %g < %g", rg, p, got, d, rg.Inner)
		}
	})
}
