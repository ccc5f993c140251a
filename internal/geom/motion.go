package geom

import "math"

// SegmentRectExit returns the smallest t ≥ 0 at which the moving point
// p + t·v leaves the closed rectangle r. ok=false when p starts outside
// (exit time is immediately 0 in the caller's terms) or when v is zero
// (the point never leaves).
func SegmentRectExit(r Rect, p Point, v Point) (float64, bool) {
	if !r.Contains(p) {
		return 0, false
	}
	t := math.Inf(1)
	if v.X > 0 {
		t = min(t, (r.MaxX-p.X)/v.X)
	} else if v.X < 0 {
		t = min(t, (r.MinX-p.X)/v.X)
	}
	if v.Y > 0 {
		t = min(t, (r.MaxY-p.Y)/v.Y)
	} else if v.Y < 0 {
		t = min(t, (r.MinY-p.Y)/v.Y)
	}
	if math.IsInf(t, 1) {
		return 0, false
	}
	if t < 0 {
		t = 0
	}
	return t, true
}

// SegmentRectEnter returns the smallest t ≥ 0 at which the moving point
// p + t·v enters the closed rectangle r, and ok=false when it never does.
// When p starts inside, t is 0.
func SegmentRectEnter(r Rect, p Point, v Point) (float64, bool) {
	if r.Contains(p) {
		return 0, true
	}
	tEnter, tLeave := math.Inf(-1), math.Inf(1)
	for _, axis := range [2][3]float64{
		{p.X, v.X, 0}, // sentinel layout: pos, vel, axis id (unused)
		{p.Y, v.Y, 1},
	} {
		pos, vel := axis[0], axis[1]
		lo, hi := r.MinX, r.MaxX
		//lint:allow floatcmp axis id is an exact 0/1 sentinel, never computed
		if axis[2] == 1 {
			lo, hi = r.MinY, r.MaxY
		}
		if vel == 0 {
			if pos < lo || pos > hi {
				return 0, false
			}
			continue
		}
		t1 := (lo - pos) / vel
		t2 := (hi - pos) / vel
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		tEnter = max(tEnter, t1)
		tLeave = min(tLeave, t2)
	}
	if tEnter > tLeave || tLeave < 0 {
		return 0, false
	}
	if tEnter < 0 {
		tEnter = 0
	}
	return tEnter, true
}
