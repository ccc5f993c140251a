package saferegion

import (
	"math/rand"
	"testing"
	"testing/quick"

	"srb/internal/geom"
)

var cell = geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}

func TestForRangeInsideQuery(t *testing.T) {
	q := geom.R(0.2, 0.2, 0.6, 0.6)
	got := ForRange(q, geom.Pt(0.3, 0.3), cell, geom.ExitObjective(geom.Pt(0.3, 0.3)))
	if got != q {
		t.Fatalf("inside: safe region must be the quarantine rect, got %v", got)
	}
}

func TestForRangeInsideQueryClippedByCell(t *testing.T) {
	q := geom.R(0.8, 0.8, 1.5, 1.5)
	got := ForRange(q, geom.Pt(0.9, 0.9), cell, geom.ExitObjective(geom.Pt(0.9, 0.9)))
	if got != geom.R(0.8, 0.8, 1, 1) {
		t.Fatalf("clip: got %v", got)
	}
}

func TestForRangeOutsideQuery(t *testing.T) {
	q := geom.R(0.4, 0.4, 0.6, 0.6)
	got := ForRange(q, geom.Pt(0.2, 0.5), cell, geom.ExitObjective(geom.Pt(0.2, 0.5)))
	if got != (geom.Rect{MinX: 0, MinY: 0, MaxX: 0.4, MaxY: 1}) {
		t.Fatalf("outside: got %v, want left strip", got)
	}
}

func TestBatchNoObstacles(t *testing.T) {
	got := ForRangeBatch(nil, geom.Pt(0.5, 0.5), cell, geom.ExitObjective(geom.Pt(0.5, 0.5)))
	if got != cell {
		t.Fatalf("no obstacles: got %v, want cell", got)
	}
}

func TestBatchSingleObstacleMatchesSingleQuery(t *testing.T) {
	// With a single query rectangle, the batch result must be at least as good
	// as one of the four strips (it can equal the best strip).
	q := geom.R(0.4, 0.4, 0.6, 0.6)
	p := geom.Pt(0.2, 0.5)
	obj := geom.ExitObjective(p)
	single := ForRange(q, p, cell, obj)
	batch := ForRangeBatch([]geom.Rect{q}, p, cell, obj)
	if !batch.Contains(p) {
		t.Fatalf("batch region %v does not contain p", batch)
	}
	if batch.Intersect(q).IsValid() && batch.Intersect(q).Area() > 1e-12 {
		t.Fatalf("batch region %v overlaps obstacle", batch)
	}
	if obj.Score(batch) < obj.Score(single)-1e-9 {
		t.Fatalf("batch %v (score %v) worse than single strip %v (score %v)",
			batch, obj.Score(batch), single, obj.Score(single))
	}
}

func TestBatchTwoObstaclesFigure55(t *testing.T) {
	// Figure 5.5 style: two query rectangles NE of p; the component rectangle
	// construction must avoid both while keeping the region maximal.
	p := geom.Pt(0.3, 0.3)
	obs := []geom.Rect{
		geom.R(0.5, 0.4, 0.7, 0.55),
		geom.R(0.4, 0.6, 0.55, 0.8),
	}
	got := ForRangeBatch(obs, p, cell, geom.ExitObjective(p))
	if !got.Contains(p) {
		t.Fatalf("region %v does not contain p", got)
	}
	for _, o := range obs {
		inter := got.Intersect(o)
		if inter.IsValid() && inter.Area() > 1e-12 {
			t.Fatalf("region %v overlaps obstacle %v", got, o)
		}
	}
	// The region must not be needlessly small: it can reach the cell's west
	// and south edges (no obstacles there).
	if got.MinX > 1e-9 || got.MinY > 1e-9 {
		t.Fatalf("region %v should extend to the SW cell corner", got)
	}
}

func TestBatchObstacleTouchingP(t *testing.T) {
	// p on the boundary of an obstacle: the region degenerates along that
	// axis but must stay valid and contain p.
	p := geom.Pt(0.5, 0.5)
	obs := []geom.Rect{geom.R(0.5, 0.4, 0.7, 0.6)} // p on its west edge
	got := ForRangeBatch(obs, p, cell, geom.ExitObjective(p))
	if !got.Contains(p) || !got.IsValid() {
		t.Fatalf("degenerate case: got %v", got)
	}
	inter := got.Intersect(obs[0])
	if inter.IsValid() && inter.Area() > 1e-12 {
		t.Fatalf("region %v overlaps obstacle", got)
	}
}

func TestBatchProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := geom.Pt(0.05+0.9*r.Float64(), 0.05+0.9*r.Float64())
		n := 1 + r.Intn(12)
		var obs []geom.Rect
		for len(obs) < n {
			x, y := r.Float64(), r.Float64()
			o := geom.R(x, y, x+r.Float64()*0.3, y+r.Float64()*0.3)
			// Precondition: p is not interior to any obstacle.
			if o.Contains(p) {
				continue
			}
			obs = append(obs, o)
		}
		got := ForRangeBatch(obs, p, cell, geom.ExitObjective(p))
		if !got.IsValid() || !got.Contains(p) {
			return false
		}
		if !cell.Expand(1e-9).ContainsRect(got) {
			return false
		}
		for _, o := range obs {
			inter := got.Intersect(o)
			if inter.IsValid() && inter.Area() > 1e-9 {
				return false
			}
		}
		// Sampled interior points must avoid every obstacle's interior.
		for i := 0; i < 16; i++ {
			s := geom.Pt(got.MinX+rng.Float64()*got.Width(), got.MinY+rng.Float64()*got.Height())
			for _, o := range obs {
				if s.X > o.MinX+1e-9 && s.X < o.MaxX-1e-9 && s.Y > o.MinY+1e-9 && s.Y < o.MaxY-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// The batch algorithm's motivation (Section 5.3): with several obstacles it
// should usually produce a region at least as large as intersecting the
// per-query strips. We assert it never loses by more than the greedy bound on
// a randomized workload in aggregate.
func TestBatchBeatsIntersectionOnAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	batchWins, total := 0, 0
	for trial := 0; trial < 300; trial++ {
		p := geom.Pt(0.1+0.8*rng.Float64(), 0.1+0.8*rng.Float64())
		var obs []geom.Rect
		for len(obs) < 4 {
			x, y := rng.Float64(), rng.Float64()
			o := geom.R(x, y, x+rng.Float64()*0.2, y+rng.Float64()*0.2)
			if o.Contains(p) {
				continue
			}
			obs = append(obs, o)
		}
		obj := geom.ExitObjective(p)
		inter := cell
		for _, o := range obs {
			inter = inter.Intersect(ForRange(o, p, cell, obj))
		}
		batch := ForRangeBatch(obs, p, cell, obj)
		total++
		if obj.Score(batch) >= obj.Score(inter)-1e-9 {
			batchWins++
		}
	}
	if float64(batchWins)/float64(total) < 0.9 {
		t.Fatalf("batch computation should rarely lose to strip intersection: won %d/%d", batchWins, total)
	}
}

func TestBatchPOutsideCellIsTolerated(t *testing.T) {
	p := geom.Pt(1.2, 0.5)
	got := ForRangeBatch([]geom.Rect{geom.R(0.4, 0.4, 0.6, 0.6)}, p, cell, geom.ExitObjective(p))
	if !got.Contains(p) {
		t.Fatalf("region %v must still contain p", got)
	}
}
