package geom

import (
	"fmt"
	"math"
)

// Rect is a closed axis-aligned rectangle [MinX, MaxX] × [MinY, MaxY].
// Safe regions, quarantine areas of range queries, R-tree entries and grid
// cells are all Rects.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// R constructs a Rect, normalizing the corner order.
func R(x1, y1, x2, y2 float64) Rect {
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	return Rect{MinX: x1, MinY: y1, MaxX: x2, MaxY: y2}
}

// RectAround returns the degenerate rectangle containing only p.
func RectAround(p Point) Rect { return Rect{p.X, p.Y, p.X, p.Y} }

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.6g,%.6g]x[%.6g,%.6g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// Width returns MaxX - MinX.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns MaxY - MinY.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Perimeter returns the perimeter 2*(width+height), the objective maximized
// by safe-region computation (Theorem 5.1).
func (r Rect) Perimeter() float64 { return 2 * (r.Width() + r.Height()) }

// Area returns width*height.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the rectangle's center point.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// IsValid reports whether the rectangle is non-empty (Min ≤ Max on both axes).
func (r Rect) IsValid() bool { return r.MinX <= r.MaxX && r.MinY <= r.MaxY }

// Contains reports whether p lies inside the closed rectangle.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsRect reports whether s is fully inside r.
func (r Rect) ContainsRect(s Rect) bool {
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether the closed rectangles share at least one point.
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Intersect returns the intersection rectangle. The result may be invalid
// (check IsValid) when the rectangles are disjoint.
//
// geom uses the builtin min/max throughout: they compile inline, where
// math.Min/math.Max are assembly calls, and they give the same bits on every
// input without a NaN, ±0 and ±Inf included (TestRectIntersectUnionMatchMathMinMax).
func (r Rect) Intersect(s Rect) Rect {
	return Rect{
		MinX: max(r.MinX, s.MinX),
		MinY: max(r.MinY, s.MinY),
		MaxX: min(r.MaxX, s.MaxX),
		MaxY: min(r.MaxY, s.MaxY),
	}
}

// Union returns the minimum bounding rectangle of r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		MinX: min(r.MinX, s.MinX),
		MinY: min(r.MinY, s.MinY),
		MaxX: max(r.MaxX, s.MaxX),
		MaxY: max(r.MaxY, s.MaxY),
	}
}

// Expand grows the rectangle by m on every side.
func (r Rect) Expand(m float64) Rect {
	return Rect{r.MinX - m, r.MinY - m, r.MaxX + m, r.MaxY + m}
}

// ClampPoint returns the point of r nearest to p.
func (r Rect) ClampPoint(p Point) Point {
	return Point{clamp(p.X, r.MinX, r.MaxX), clamp(p.Y, r.MinY, r.MaxY)}
}

// MinDist returns δ(p, r): the minimum distance between p and any point of r
// (zero when p is inside).
func (r Rect) MinDist(p Point) float64 {
	return p.Dist(r.ClampPoint(p))
}

// MaxDist returns Δ(p, r): the maximum distance between p and any point of r,
// attained at one of the four corners.
func (r Rect) MaxDist(p Point) float64 {
	dx := max(p.X-r.MinX, r.MaxX-p.X)
	dy := max(p.Y-r.MinY, r.MaxY-p.Y)
	return math.Hypot(dx, dy)
}

// MinDistRect returns δ(r, s): the minimum distance between a pair of points
// drawn from r and s respectively (zero when they intersect).
func (r Rect) MinDistRect(s Rect) float64 {
	dx := axisGap(r.MinX, r.MaxX, s.MinX, s.MaxX)
	dy := axisGap(r.MinY, r.MaxY, s.MinY, s.MaxY)
	return math.Hypot(dx, dy)
}

// MaxDistRect returns Δ(r, s): the maximum distance between a pair of points
// drawn from r and s.
func (r Rect) MaxDistRect(s Rect) float64 {
	dx := max(r.MaxX-s.MinX, s.MaxX-r.MinX)
	dy := max(r.MaxY-s.MinY, s.MaxY-r.MinY)
	return math.Hypot(dx, dy)
}

// Corners returns the four corner points in counter-clockwise order starting
// at (MinX, MinY).
func (r Rect) Corners() [4]Point {
	return [4]Point{
		{r.MinX, r.MinY},
		{r.MaxX, r.MinY},
		{r.MaxX, r.MaxY},
		{r.MinX, r.MaxY},
	}
}

func axisGap(a1, a2, b1, b2 float64) float64 {
	switch {
	case b1 > a2:
		return b1 - a2
	case a1 > b2:
		return a1 - b2
	default:
		return 0
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
