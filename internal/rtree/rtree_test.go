package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"srb/internal/geom"
)

func randRect(rng *rand.Rand, maxSide float64) geom.Rect {
	x := rng.Float64()
	y := rng.Float64()
	return geom.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*maxSide, MaxY: y + rng.Float64()*maxSide}
}

func bruteRange(items map[uint64]geom.Rect, q geom.Rect) map[uint64]bool {
	out := map[uint64]bool{}
	for id, r := range items {
		if r.Intersects(q) {
			out[id] = true
		}
	}
	return out
}

func TestInsertSearchAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := New()
	ref := map[uint64]geom.Rect{}
	for i := 0; i < 2000; i++ {
		r := randRect(rng, 0.05)
		tr.Insert(uint64(i), r)
		ref[uint64(i)] = r
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if tr.Len() != 2000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for trial := 0; trial < 50; trial++ {
		q := randRect(rng, 0.2)
		want := bruteRange(ref, q)
		got := map[uint64]bool{}
		tr.Search(q, func(it Item) bool {
			if got[it.ID] {
				t.Fatalf("duplicate result %d", it.ID)
			}
			got[it.ID] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("missing id %d", id)
			}
		}
	}
}

func TestDeleteAndCondense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := New()
	ref := map[uint64]geom.Rect{}
	for i := 0; i < 1500; i++ {
		r := randRect(rng, 0.03)
		tr.Insert(uint64(i), r)
		ref[uint64(i)] = r
	}
	// Delete two thirds in random order.
	ids := make([]uint64, 0, len(ref))
	for id := range ref {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids[:1000] {
		if !tr.Delete(id) {
			t.Fatalf("delete %d failed", id)
		}
		delete(ref, id)
	}
	if tr.Delete(99999) {
		t.Fatal("deleting unknown id must return false")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after deletes: %v", err)
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d, want 500", tr.Len())
	}
	q := geom.Rect{MinX: 0, MinY: 0, MaxX: 1.2, MaxY: 1.2}
	got := map[uint64]bool{}
	tr.Search(q, func(it Item) bool { got[it.ID] = true; return true })
	if len(got) != len(ref) {
		t.Fatalf("search after delete: %d vs %d", len(got), len(ref))
	}
}

func TestDeleteAll(t *testing.T) {
	tr := New()
	for i := 0; i < 300; i++ {
		tr.Insert(uint64(i), geom.R(float64(i)/300, 0, float64(i)/300+0.01, 0.01))
	}
	for i := 0; i < 300; i++ {
		if !tr.Delete(uint64(i)) {
			t.Fatalf("delete %d", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if _, ok := tr.Bounds(); ok {
		t.Fatal("Bounds on empty tree should report !ok")
	}
}

func TestUpdateBottomUpFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := New()
	ref := map[uint64]geom.Rect{}
	for i := 0; i < 1000; i++ {
		r := randRect(rng, 0.02)
		tr.Insert(uint64(i), r)
		ref[uint64(i)] = r
	}
	tr.Root() // place the buffered items, so the updates below meet the tree
	// Shrinking an entry slightly must take the fast path: the new rect is
	// inside the parent entry's MBR.
	_, _, fastBefore, _ := tr.Stats()
	for i := 0; i < 1000; i++ {
		r := ref[uint64(i)]
		c := r.Center()
		nr := geom.Rect{MinX: c.X, MinY: c.Y, MaxX: c.X, MaxY: c.Y}
		tr.Update(uint64(i), nr)
		ref[uint64(i)] = nr
	}
	_, _, fastAfter, slow := tr.Stats()
	if fastAfter-fastBefore != 1000 {
		t.Fatalf("expected 1000 fast updates, got %d (slow %d)", fastAfter-fastBefore, slow)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	for id, r := range ref {
		got, ok := tr.Get(id)
		if !ok || got != r {
			t.Fatalf("Get(%d) = %v,%v want %v", id, got, ok, r)
		}
	}
}

func TestUpdateMovesFarAway(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := New()
	ref := map[uint64]geom.Rect{}
	for i := 0; i < 800; i++ {
		r := randRect(rng, 0.02)
		tr.Insert(uint64(i), r)
		ref[uint64(i)] = r
	}
	tr.Root() // place the buffered items, so the updates below meet the tree
	for trial := 0; trial < 3000; trial++ {
		id := uint64(rng.Intn(800))
		r := randRect(rng, 0.02)
		tr.Update(id, r)
		ref[id] = r
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	for trial := 0; trial < 30; trial++ {
		q := randRect(rng, 0.3)
		want := bruteRange(ref, q)
		got := map[uint64]bool{}
		tr.Search(q, func(it Item) bool { got[it.ID] = true; return true })
		if len(got) != len(want) {
			t.Fatalf("after updates: got %d want %d", len(got), len(want))
		}
	}
}

func TestInsertExistingIDReplaces(t *testing.T) {
	tr := New()
	tr.Insert(7, geom.R(0, 0, 0.1, 0.1))
	tr.Insert(7, geom.R(0.5, 0.5, 0.6, 0.6))
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	r, ok := tr.Get(7)
	if !ok || r != geom.R(0.5, 0.5, 0.6, 0.6) {
		t.Fatalf("Get = %v,%v", r, ok)
	}
}

func TestNearestOrderMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := New()
	type rec struct {
		id uint64
		d  float64
	}
	ref := map[uint64]geom.Rect{}
	for i := 0; i < 1200; i++ {
		r := randRect(rng, 0.01)
		tr.Insert(uint64(i), r)
		ref[uint64(i)] = r
	}
	for trial := 0; trial < 20; trial++ {
		q := geom.Pt(rng.Float64(), rng.Float64())
		var brute []rec
		for id, r := range ref {
			brute = append(brute, rec{id, r.MinDist(q)})
		}
		sort.Slice(brute, func(i, j int) bool { return brute[i].d < brute[j].d })
		it := tr.Nearest(q)
		for k := 0; k < 25; k++ {
			item, d, ok := it.Next()
			if !ok {
				t.Fatal("iterator exhausted early")
			}
			if d != ref[item.ID].MinDist(q) {
				t.Fatalf("reported distance mismatch for %d", item.ID)
			}
			// Distances must be non-decreasing and match the brute ranking's
			// distance at that position (IDs may tie).
			if got, want := d, brute[k].d; gotAbs(got-want) > 1e-12 {
				t.Fatalf("k=%d: dist %v, want %v", k, got, want)
			}
		}
	}
}

func TestKNearest(t *testing.T) {
	tr := New()
	for i := 0; i < 10; i++ {
		x := float64(i) * 0.1
		tr.Insert(uint64(i), geom.R(x, 0, x, 0))
	}
	got := tr.KNearest(geom.Pt(0.34, 0), 3)
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].ID != 3 {
		t.Fatalf("first = %d, want 3", got[0].ID)
	}
	// k larger than the population returns everything.
	if all := tr.KNearest(geom.Pt(0, 0), 99); len(all) != 10 {
		t.Fatalf("k>n: len = %d", len(all))
	}
	empty := New()
	if r := empty.KNearest(geom.Pt(0, 0), 3); len(r) != 0 {
		t.Fatalf("empty tree: %v", r)
	}
}

func TestSearchEarlyStop(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Insert(uint64(i), geom.R(0.5, 0.5, 0.5, 0.5))
	}
	n := 0
	tr.Search(geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, func(Item) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestSmallCapacityTree(t *testing.T) {
	tr := NewWithCapacity(4)
	rng := rand.New(rand.NewSource(6))
	ref := map[uint64]geom.Rect{}
	for i := 0; i < 500; i++ {
		r := randRect(rng, 0.05)
		tr.Insert(uint64(i), r)
		ref[uint64(i)] = r
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if tr.Height() < 3 {
		t.Fatalf("expected a deep tree, height = %d", tr.Height())
	}
	q := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.4, MaxY: 0.4}
	want := bruteRange(ref, q)
	got := 0
	tr.Search(q, func(Item) bool { got++; return true })
	if got != len(want) {
		t.Fatalf("got %d want %d", got, len(want))
	}
}

func TestAllVisitsEverything(t *testing.T) {
	tr := New()
	for i := 0; i < 321; i++ {
		tr.Insert(uint64(i), geom.R(rand.Float64(), rand.Float64(), rand.Float64(), rand.Float64()))
	}
	n := 0
	tr.All(func(Item) bool { n++; return true })
	if n != 321 {
		t.Fatalf("All visited %d", n)
	}
}

func gotAbs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestBulkLoadMatchesInserted fills empty trees by Insert, which buffers the
// items, and checks the tree the first Search packs: size, invariants (before
// and after the pack), no split or reinsert, and range results.
func TestBulkLoadMatchesInserted(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, c := range []struct{ capacity, n int }{
		{16, 0}, {16, 1}, {16, 5}, {16, 17}, {16, 100}, {16, 2500}, {4, 500},
	} {
		n := c.n
		tr := NewWithCapacity(c.capacity)
		ref := map[uint64]geom.Rect{}
		for i := 0; i < n; i++ {
			r := randRect(rng, 0.02)
			tr.Insert(uint64(i), r)
			ref[uint64(i)] = r
		}
		if len(tr.pending) != n {
			t.Fatalf("capacity %d n=%d: %d items pending before the first read", c.capacity, n, len(tr.pending))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("capacity %d n=%d: invariants while pending: %v", c.capacity, n, err)
		}
		tr.Search(geom.Rect{}, func(Item) bool { return true })
		if tr.Len() != n || len(tr.pending) != 0 {
			t.Fatalf("capacity %d n=%d: Len = %d, %d still pending", c.capacity, n, tr.Len(), len(tr.pending))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("capacity %d n=%d: invariants: %v", c.capacity, n, err)
		}
		if splits, reinserts, _, _ := tr.Stats(); splits != 0 || reinserts != 0 {
			t.Fatalf("capacity %d n=%d: packed build split %d times and reinserted %d times", c.capacity, n, splits, reinserts)
		}
		for trial := 0; trial < 10 && n > 0; trial++ {
			q := randRect(rng, 0.3)
			want := bruteRange(ref, q)
			got := map[uint64]bool{}
			tr.Search(q, func(it Item) bool { got[it.ID] = true; return true })
			if len(got) != len(want) {
				t.Fatalf("capacity %d n=%d trial %d: got %d want %d", c.capacity, n, trial, len(got), len(want))
			}
		}
	}
}

// TestBulkLoadedTreeSupportsMutation packs a capacity-8 tree and churns it
// with inserts, deletes and updates on the R* paths.
func TestBulkLoadedTreeSupportsMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ref := map[uint64]geom.Rect{}
	tr := NewWithCapacity(8)
	for i := 0; i < 1000; i++ {
		r := randRect(rng, 0.02)
		tr.Insert(uint64(i), r)
		ref[uint64(i)] = r
	}
	if h := tr.Height(); h < 3 || len(tr.pending) != 0 {
		t.Fatalf("Height = %d with %d pending; want a packed tree of height ≥ 3", h, len(tr.pending))
	}
	for step := 0; step < 2000; step++ {
		switch rng.Intn(3) {
		case 0:
			id := uint64(1000 + step)
			r := randRect(rng, 0.02)
			tr.Insert(id, r)
			ref[id] = r
		case 1:
			id := uint64(rng.Intn(1000))
			if _, ok := ref[id]; ok {
				tr.Delete(id)
				delete(ref, id)
			}
		default:
			id := uint64(rng.Intn(1000))
			if _, ok := ref[id]; ok {
				r := randRect(rng, 0.02)
				tr.Update(id, r)
				ref[id] = r
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after churn: %v", err)
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d want %d", tr.Len(), len(ref))
	}
	q := geom.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.6, MaxY: 0.6}
	want := bruteRange(ref, q)
	got := 0
	tr.Search(q, func(Item) bool { got++; return true })
	if got != len(want) {
		t.Fatalf("search after churn: %d want %d", got, len(want))
	}
}

func TestBulkLoadFasterQueryQuality(t *testing.T) {
	// A tree packed from its buffer and one placed item by item (its first
	// item is placed by Root before the rest arrive) must answer range
	// queries alike.
	rng := rand.New(rand.NewSource(15))
	bulk, inc := New(), New()
	for i := 0; i < 5000; i++ {
		r := randRect(rng, 0.01)
		bulk.Insert(uint64(i), r)
		inc.Insert(uint64(i), r)
		if i == 0 {
			inc.Root()
		}
	}
	if inc.splits == 0 || len(inc.pending) != 0 {
		t.Fatalf("incremental tree did not take the R* insert path: %d splits, %d pending", inc.splits, len(inc.pending))
	}
	for trial := 0; trial < 20; trial++ {
		q := randRect(rng, 0.1)
		a, b := 0, 0
		bulk.Search(q, func(Item) bool { a++; return true })
		inc.Search(q, func(Item) bool { b++; return true })
		if a != b {
			t.Fatalf("result mismatch: %d vs %d", a, b)
		}
	}
}

// BenchmarkTreeInsert measures the R* insert path (ChooseSubtree, forced
// reinsertion and splits) by inserting 50k points into a tree whose first
// point is placed, so none is buffered for packing.
func BenchmarkTreeInsert(b *testing.B) {
	const n = 50000
	rng := rand.New(rand.NewSource(21))
	pts := make([]geom.Rect, n)
	for i := range pts {
		pts[i] = geom.RectAround(geom.Pt(rng.Float64(), rng.Float64()))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := New()
		for id, r := range pts {
			tr.Insert(uint64(id), r)
			if id == 0 {
				tr.Root()
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/insert")
}

// BenchmarkTreeUpdateSlowPath measures Update when each item moves to a
// rectangle drawn uniformly across the unit square. None of the bottom-up
// moves can apply to almost any of them, so slow_share (the fraction that
// fell back to Delete + Insert) stays near 1.
func BenchmarkTreeUpdateSlowPath(b *testing.B) {
	const n = 50000
	rng := rand.New(rand.NewSource(22))
	tr := New()
	for i := 0; i < n; i++ {
		tr.Insert(uint64(i), randRect(rng, 0.002))
	}
	tr.Root()
	moves := make([]geom.Rect, 4096)
	for i := range moves {
		moves[i] = randRect(rng, 0.002)
	}
	_, _, fast0, slow0 := tr.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Update(uint64(rng.Intn(n)), moves[i%len(moves)])
	}
	b.StopTimer()
	_, _, fast, slow := tr.Stats()
	b.ReportMetric(float64(slow-slow0)/float64(fast-fast0+slow-slow0), "slow_share")
}

// BenchmarkTreeUpdateLocal measures Update on the monitor's move pattern: the
// new rectangle contains a point on the old rectangle's edge, as a safe region
// granted after an exit report contains the position reported from the edge
// of the previous one. slow_share is the fraction that fell back to Delete +
// Insert.
func BenchmarkTreeUpdateLocal(b *testing.B) {
	const n = 50000
	rng := rand.New(rand.NewSource(23))
	tr := New()
	for i := 0; i < n; i++ {
		tr.Insert(uint64(i), randRect(rng, 0.002))
	}
	tr.Root()
	_, _, fast0, slow0 := tr.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(rng.Intn(n))
		old, _ := tr.Get(id)
		tr.Update(id, edgeMove(rng, old, 0.0005))
	}
	b.StopTimer()
	_, _, fast, slow := tr.Stats()
	b.ReportMetric(float64(slow-slow0)/float64(fast-fast0+slow-slow0), "slow_share")
}

// edgeMove returns a rectangle that contains a point on old's boundary, the
// way a safe region granted after an exit report contains the position the
// client reported from the edge of its previous region. The point sits at a
// corner, a quarter or the middle of a side, and the rectangle's width and
// height are 0 to 4 times unit, so ties recur; a quarter of the results are
// points.
func edgeMove(rng *rand.Rand, old geom.Rect, unit float64) geom.Rect {
	var p geom.Point
	f := float64(rng.Intn(5)) / 4
	switch rng.Intn(4) {
	case 0:
		p = geom.Pt(old.MinX+f*(old.MaxX-old.MinX), old.MinY)
	case 1:
		p = geom.Pt(old.MinX+f*(old.MaxX-old.MinX), old.MaxY)
	case 2:
		p = geom.Pt(old.MinX, old.MinY+f*(old.MaxY-old.MinY))
	default:
		p = geom.Pt(old.MaxX, old.MinY+f*(old.MaxY-old.MinY))
	}
	if rng.Intn(4) == 0 {
		return geom.RectAround(p)
	}
	w, h := float64(rng.Intn(5))*unit, float64(rng.Intn(5))*unit
	u, v := rng.Float64(), rng.Float64()
	return geom.R(p.X-u*w, p.Y-v*h, p.X+(1-u)*w, p.Y+(1-v)*h)
}
