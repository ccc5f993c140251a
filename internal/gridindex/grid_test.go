package gridindex

import (
	"math/rand"
	"testing"

	"srb/internal/geom"
	"srb/internal/query"
)

var space = geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}

func TestCellGeometry(t *testing.T) {
	g := New(4, space)
	i, j := g.CellOf(geom.Pt(0.26, 0.9))
	if i != 1 || j != 3 {
		t.Fatalf("CellOf = (%d,%d)", i, j)
	}
	r := g.CellRect(1, 3)
	if r != (geom.Rect{MinX: 0.25, MinY: 0.75, MaxX: 0.5, MaxY: 1}) {
		t.Fatalf("CellRect = %v", r)
	}
	// Boundary and out-of-space points clamp into the grid.
	if i, j := g.CellOf(geom.Pt(1, 1)); i != 3 || j != 3 {
		t.Fatalf("clamp high: (%d,%d)", i, j)
	}
	if i, j := g.CellOf(geom.Pt(-5, 2)); i != 0 || j != 3 {
		t.Fatalf("clamp out: (%d,%d)", i, j)
	}
	if !g.CellRectOf(geom.Pt(0.26, 0.9)).Contains(geom.Pt(0.26, 0.9)) {
		t.Fatal("CellRectOf must contain the point")
	}
}

func TestInsertRemoveBuckets(t *testing.T) {
	g := New(10, space)
	q := query.NewRange(1, geom.R(0.11, 0.11, 0.35, 0.15)) // spans cells x:1..3, y:1
	g.Insert(q)
	if g.Len() != 1 {
		t.Fatalf("Len = %d", g.Len())
	}
	for _, p := range []geom.Point{geom.Pt(0.12, 0.12), geom.Pt(0.25, 0.12), geom.Pt(0.32, 0.12)} {
		if got := g.At(p); len(got) != 1 || got[0].ID != 1 {
			t.Fatalf("bucket at %v = %v", p, got)
		}
	}
	if got := g.At(geom.Pt(0.45, 0.12)); len(got) != 0 {
		t.Fatalf("unexpected bucket content: %v", got)
	}
	if !g.Remove(q) {
		t.Fatal("remove failed")
	}
	if g.Remove(q) {
		t.Fatal("second remove must report false")
	}
	if got := g.At(geom.Pt(0.12, 0.12)); len(got) != 0 {
		t.Fatalf("bucket not emptied: %v", got)
	}
}

func TestBucketsSortedByID(t *testing.T) {
	g := New(2, space)
	for _, id := range []query.ID{5, 1, 9, 3} {
		g.Insert(query.NewRange(id, geom.R(0.1, 0.1, 0.2, 0.2)))
	}
	b := g.At(geom.Pt(0.15, 0.15))
	if len(b) != 4 {
		t.Fatalf("bucket len = %d", len(b))
	}
	for i := 1; i < len(b); i++ {
		if b[i-1].ID >= b[i].ID {
			t.Fatalf("bucket not sorted: %v %v", b[i-1].ID, b[i].ID)
		}
	}
}

func TestUpdateReindexesQuarantine(t *testing.T) {
	g := New(10, space)
	q := query.NewKNN(1, geom.Pt(0.5, 0.5), 2, false)
	q.QRadius = 0.05
	g.Insert(q)
	if len(g.At(geom.Pt(0.5, 0.5))) != 1 {
		t.Fatal("expected query at center")
	}
	// Enlarge quarantine: it now overlaps neighboring cells as well.
	q.QRadius = 0.15
	g.Update(q)
	if len(g.At(geom.Pt(0.38, 0.5))) != 1 {
		t.Fatal("expected query in neighboring cell after update")
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d after update", g.Len())
	}
	// No-op update keeps things intact.
	g.Update(q)
	if g.Len() != 1 || len(g.At(geom.Pt(0.5, 0.5))) != 1 {
		t.Fatal("no-op update broke the index")
	}
}

func TestAffectedDeduplicatesAndFilters(t *testing.T) {
	g := New(10, space)
	r1 := query.NewRange(1, geom.R(0.0, 0.0, 0.3, 0.3)) // old point inside
	r2 := query.NewRange(2, geom.R(0.6, 0.6, 0.9, 0.9)) // new point inside
	r3 := query.NewRange(3, geom.R(0.0, 0.0, 0.95, 0.95))
	// r3 covers both positions: both inside → not affected.
	g.Insert(r1)
	g.Insert(r2)
	g.Insert(r3)
	pOld := geom.Pt(0.1, 0.1)
	pNew := geom.Pt(0.7, 0.7)
	got := g.Affected(pOld, pNew)
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		ids := []query.ID{}
		for _, q := range got {
			ids = append(ids, q.ID)
		}
		t.Fatalf("affected = %v, want [1 2]", ids)
	}
	// AppendAffected keeps what dst already holds; AnyAffected agrees.
	appended := g.AppendAffected([]*query.Query{r3}, pOld, pNew)
	if len(appended) != 3 || appended[0] != r3 || appended[1] != r1 || appended[2] != r2 {
		t.Fatalf("AppendAffected onto [3] returned %d queries, want [3 1 2]", len(appended))
	}
	if !g.AnyAffected(pOld, pNew) {
		t.Fatal("AnyAffected = false for a move with two affected queries")
	}
	// Same-cell move: shared bucket must not duplicate results.
	got = g.Affected(geom.Pt(0.28, 0.28), geom.Pt(0.32, 0.32))
	for i := 1; i < len(got); i++ {
		if got[i-1].ID == got[i].ID {
			t.Fatal("duplicate in affected list")
		}
	}
	// A move inside r3 that touches no other quarantine affects nothing.
	from, to := geom.Pt(0.45, 0.5), geom.Pt(0.5, 0.45)
	if g.AnyAffected(from, to) || len(g.Affected(from, to)) != 0 {
		t.Fatal("a move inside r3 alone reported affected queries")
	}
}

func TestAffectedOrderSensitiveKNNInsideQuarantine(t *testing.T) {
	g := New(10, space)
	q := query.NewKNN(1, geom.Pt(0.5, 0.5), 2, true)
	q.QRadius = 0.2
	g.Insert(q)
	got := g.Affected(geom.Pt(0.45, 0.5), geom.Pt(0.55, 0.5))
	if len(got) != 1 {
		t.Fatalf("order-sensitive kNN must be affected by in-quarantine moves, got %d", len(got))
	}
}

func TestGridRandomizedConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := New(17, space)
	live := map[query.ID]*query.Query{}
	next := query.ID(1)
	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(3); {
		case op == 0 || len(live) == 0:
			var q *query.Query
			if rng.Intn(2) == 0 {
				x, y := rng.Float64()*0.9, rng.Float64()*0.9
				q = query.NewRange(next, geom.R(x, y, x+rng.Float64()*0.1, y+rng.Float64()*0.1))
			} else {
				q = query.NewKNN(next, geom.Pt(rng.Float64(), rng.Float64()), 1+rng.Intn(5), rng.Intn(2) == 0)
				q.QRadius = rng.Float64() * 0.1
			}
			g.Insert(q)
			live[next] = q
			next++
		case op == 1:
			for id, q := range live {
				g.Remove(q)
				delete(live, id)
				break
			}
		default:
			for _, q := range live {
				if q.Kind == query.KindKNN {
					q.QRadius = rng.Float64() * 0.1
				}
				g.Update(q)
				break
			}
		}
	}
	if g.Len() != len(live) {
		t.Fatalf("Len = %d, live = %d", g.Len(), len(live))
	}
	// Every live query must be found in the bucket of a point inside its
	// quarantine bbox.
	for _, q := range live {
		bb := q.QuarantineBBox().Intersect(space)
		if !bb.IsValid() {
			continue
		}
		c := bb.Center()
		found := false
		for _, cand := range g.At(c) {
			if cand.ID == q.ID {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("query %d not found in its center cell", q.ID)
		}
	}
}

func TestNeighborhoodRect(t *testing.T) {
	g := New(10, space)
	p := geom.Pt(0.55, 0.55) // cell (5,5)
	if got := g.NeighborhoodRect(p, 0); got != g.CellRectOf(p) {
		t.Fatalf("r=0 should equal the cell: %v", got)
	}
	got := g.NeighborhoodRect(p, 1)
	want := geom.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.7, MaxY: 0.7}
	if got.MinDistRect(want) > 1e-12 || got.Width() < 0.3-1e-12 {
		t.Fatalf("3x3 block = %v, want %v", got, want)
	}
	// Corner cells clamp.
	corner := g.NeighborhoodRect(geom.Pt(0.01, 0.01), 1)
	if corner.MinX != 0 || corner.MinY != 0 {
		t.Fatalf("corner clamp: %v", corner)
	}
	if corner.MaxX > 0.2+1e-12 {
		t.Fatalf("corner extent: %v", corner)
	}
}

func TestAtNeighborhood(t *testing.T) {
	g := New(10, space)
	qNear := query.NewRange(1, geom.R(0.41, 0.41, 0.44, 0.44)) // one cell west-south of (5,5)
	qHere := query.NewRange(2, geom.R(0.52, 0.52, 0.58, 0.58)) // in (5,5)
	qFar := query.NewRange(3, geom.R(0.05, 0.05, 0.08, 0.08))  // far away
	qWide := query.NewRange(4, geom.R(0.30, 0.30, 0.75, 0.75)) // overlaps many cells
	for _, q := range []*query.Query{qNear, qHere, qFar, qWide} {
		g.Insert(q)
	}
	p := geom.Pt(0.55, 0.55)
	if got := g.AtNeighborhood(p, 0); len(got) != 2 { // qHere + qWide
		t.Fatalf("r=0: %d queries", len(got))
	}
	got := g.AtNeighborhood(p, 1)
	if len(got) != 3 { // + qNear, still not qFar
		ids := []query.ID{}
		for _, q := range got {
			ids = append(ids, q.ID)
		}
		t.Fatalf("r=1: got %v", ids)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].ID >= got[i].ID {
			t.Fatal("neighborhood result must be sorted and deduplicated")
		}
	}
	if got := g.AtNeighborhood(p, 9); len(got) != 4 {
		t.Fatalf("whole grid: %d", len(got))
	}
}

func TestExtentOf(t *testing.T) {
	g := New(10, space)
	q := query.NewKNN(5, geom.Pt(0.5, 0.5), 1, true)
	q.QRadius = 0.07
	g.Insert(q)
	if got := g.ExtentOf(5); got != q.QuarantineBBox() {
		t.Fatalf("ExtentOf = %v", got)
	}
	q.QRadius = 0.2
	g.Update(q)
	if got := g.ExtentOf(5); got != q.QuarantineBBox() {
		t.Fatalf("ExtentOf after update = %v", got)
	}
}
