package rtree

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"srb/internal/geom"
)

// refPickChild is pickChild as it stood before the overlap loop skipped
// disjoint entries and computed intersection areas inline, kept verbatim
// except that Union and Intersect are spelled out with math.Min/math.Max, the
// arithmetic geom used then. TestPickChildMatchesReference compares against it.
func refPickChild(n *Node, r geom.Rect) int {
	best := 0
	bestOverlap := math.Inf(1)
	bestEnlarge := math.Inf(1)
	bestArea := math.Inf(1)
	pointsToLeaves := n.level == 1
	for i := range n.entries {
		e := &n.entries[i]
		u := refUnion(e.rect, r)
		enlarge := u.Area() - e.rect.Area()
		area := e.rect.Area()
		overlap := 0.0
		if pointsToLeaves {
			for j := range n.entries {
				if j == i {
					continue
				}
				ov := refIntersect(u, n.entries[j].rect)
				if ov.IsValid() {
					overlap += ov.Area()
				}
				pre := refIntersect(e.rect, n.entries[j].rect)
				if pre.IsValid() {
					overlap -= pre.Area()
				}
			}
		}
		if overlap < bestOverlap ||
			//lint:allow floatcmp R*-tree tie-break chain: exact equality selects the next criterion
			(overlap == bestOverlap && enlarge < bestEnlarge) ||
			//lint:allow floatcmp R*-tree tie-break chain: exact equality selects the next criterion
			(overlap == bestOverlap && enlarge == bestEnlarge && area < bestArea) {
			best, bestOverlap, bestEnlarge, bestArea = i, overlap, enlarge, area
		}
	}
	return best
}

func refUnion(r, s geom.Rect) geom.Rect {
	return geom.Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

func refIntersect(r, s geom.Rect) geom.Rect {
	return geom.Rect{
		MinX: math.Max(r.MinX, s.MinX),
		MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX),
		MaxY: math.Min(r.MaxY, s.MaxY),
	}
}

// refUpdate is Tree.Update as it stood before the sibling move and
// grow-in-place, kept verbatim except for the receiver: the in-place write
// when r fits the leaf's parent entry, otherwise Delete + Insert.
// TestUpdateMatchesReference compares against it.
func refUpdate(t *Tree, id uint64, r geom.Rect) {
	leaf, ok := t.leafOf[id]
	if !ok {
		t.Insert(id, r)
		return
	}
	// Fast path: the new rectangle remains inside the leaf MBR as seen by the
	// parent entry, so no ancestor rectangle needs to change structurally.
	if p := leaf.parent; p != nil {
		pe := p.entryOf(leaf)
		if pe.rect.ContainsRect(r) {
			for i := range leaf.entries {
				if leaf.entries[i].child == nil && leaf.entries[i].item.ID == id {
					leaf.entries[i].rect = r
					leaf.entries[i].item.Rect = r
					t.fastUpdates++
					return
				}
			}
		}
	} else {
		// Root is a leaf: just replace in place.
		for i := range leaf.entries {
			if leaf.entries[i].child == nil && leaf.entries[i].item.ID == id {
				leaf.entries[i].rect = r
				leaf.entries[i].item.Rect = r
				t.fastUpdates++
				return
			}
		}
	}
	t.slowUpdates++
	t.Delete(id)
	t.Insert(id, r)
}

// TestUpdateMatchesReference drives two trees through one seeded stream, one
// updated by Update and one by refUpdate, and checks after every operation
// that both are valid R*-trees holding the same rectangle for every ID and
// answering random window searches with the same ID sets. Their shapes may
// differ. Two streams run at two capacities: one with TestTreeShapeGolden's
// mix of operations, whose moves land anywhere, and a safe-region stream
// whose moves stay on the old rectangle's edge (edgeMove), which is where the
// sibling move and grow-in-place fire.
func TestUpdateMatchesReference(t *testing.T) {
	for _, capacity := range []int{4, 16} {
		for _, local := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(31 + capacity)))
			got, ref := NewWithCapacity(capacity), NewWithCapacity(capacity)
			var live []uint64
			var pool []geom.Rect
			nextID := uint64(0)
			update := func(id uint64, r geom.Rect) {
				got.Update(id, r)
				refUpdate(ref, id, r)
			}
			for op := 0; op < 6000; op++ {
				r := goldenRect(rng, pool)
				if len(pool) < 256 {
					pool = append(pool, r)
				} else {
					pool[rng.Intn(len(pool))] = r
				}
				switch k := rng.Intn(10); {
				case k < 3 && len(live) < 600 || len(live) == 0:
					got.Insert(nextID, r)
					ref.Insert(nextID, r)
					live = append(live, nextID)
					nextID++
				case k < 8 && local:
					id := live[rng.Intn(len(live))]
					old, _ := got.Get(id)
					update(id, edgeMove(rng, old, 1.0/64))
				case k < 6:
					update(live[rng.Intn(len(live))], r)
				case k < 8:
					id := live[rng.Intn(len(live))]
					old, _ := got.Get(id)
					update(id, geom.RectAround(old.Center()))
				case k < 9: // Insert of a live ID is an Update on both sides
					update(live[rng.Intn(len(live))], r)
				default:
					i := rng.Intn(len(live))
					got.Delete(live[i])
					ref.Delete(live[i])
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				if err := got.CheckInvariants(); err != nil {
					t.Fatalf("capacity %d local %v op %d: %v", capacity, local, op, err)
				}
				if err := ref.CheckInvariants(); err != nil {
					t.Fatalf("capacity %d local %v op %d: reference: %v", capacity, local, op, err)
				}
				for _, id := range live {
					g, gok := got.Get(id)
					w, wok := ref.Get(id)
					//lint:allow floatcmp identity: both trees must hold the exact rectangle written
					if !gok || !wok || g != w {
						t.Fatalf("capacity %d local %v op %d: Get(%d) = %v,%v, reference %v,%v",
							capacity, local, op, id, g, gok, w, wok)
					}
				}
				q := goldenRect(rng, nil).Expand(rng.Float64() * 0.2)
				if g, w := searchSet(got, q), searchSet(ref, q); !reflect.DeepEqual(g, w) {
					t.Fatalf("capacity %d local %v op %d: Search(%v) = %v, reference %v",
						capacity, local, op, q, g, w)
				}
			}
			if got.Len() != ref.Len() {
				t.Fatalf("capacity %d local %v: Len %d, reference %d", capacity, local, got.Len(), ref.Len())
			}
			_, _, fast, slow := got.Stats()
			t.Logf("capacity %d local %v: fast %d (sibling moves %d, grown leaves %d), slow %d",
				capacity, local, fast, got.siblingMoves, got.grownLeaves, slow)
			if local && (got.siblingMoves == 0 || got.grownLeaves == 0) {
				t.Fatalf("capacity %d: safe-region stream missed a move: sibling %d grown %d",
					capacity, got.siblingMoves, got.grownLeaves)
			}
		}
	}
}

// searchSet returns the IDs Search reports for q, as a set.
func searchSet(tr *Tree, q geom.Rect) map[uint64]bool {
	out := map[uint64]bool{}
	tr.Search(q, func(it Item) bool {
		out[it.ID] = true
		return true
	})
	return out
}

// TestPickChildMatchesReference checks that pickChild picks the same entry
// as refPickChild on random nodes built from tie-rich rectangles (the same
// distribution as TestTreeShapeGolden), both for nodes pointing to leaves,
// which run the overlap loop, and for higher nodes, which do not. About a
// quarter of the entries are points (zero area). Half the rectangles to
// place lie inside an entry (pickFree's case): equal to it, a sub-rectangle,
// or a point or segment on its edge, which the tie-rich coordinates often
// share with a neighbour. One in six is such a rectangle pushed one ulp past
// an edge of its entry: the enlargement can round to zero while the sliver
// overlaps a neighbour. One node in 32 carries a rectangle that is inverted
// or has an infinite coordinate, where the argument behind pickFree needs
// its guard; with a NaN coordinate (where the reference's overlap terms
// differ from pickChild's) pickFree must decline.
func TestPickChildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var tr Tree
	var pool []geom.Rect
	n := &Node{}
	const trials = 120000
	inside, free, leafLevel := 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		n.level = 1 + trial%4/3 // three in four point to leaves
		n.entries = n.entries[:0]
		for i, count := 0, 2+rng.Intn(16); i < count; i++ {
			r := goldenRect(rng, pool)
			pool = append(pool, r)
			n.entries = append(n.entries, entry{rect: r})
		}
		if len(pool) > 256 {
			pool = pool[len(pool)-256:]
		}
		var r geom.Rect
		switch e := n.entries[rng.Intn(len(n.entries))].rect; rng.Intn(6) {
		case 0, 1, 2:
			r = rectInside(rng, e)
		case 3:
			r = nudgedOut(rng, rectInside(rng, e), e)
		default:
			r = goldenRect(rng, pool)
		}
		if rng.Intn(32) == 0 {
			if i := rng.Intn(len(n.entries) + 1); i == len(n.entries) {
				r = hostileRect(rng, r)
			} else {
				n.entries[i].rect = hostileRect(rng, n.entries[i].rect)
			}
		}
		if trial%64 == 0 {
			nan := *n
			nan.level = 1
			nan.entries = append([]entry(nil), n.entries...)
			rn := r
			if i := rng.Intn(len(nan.entries) + 1); i == len(nan.entries) {
				rn = withCoord(rng, rn, math.NaN())
			} else {
				nan.entries[i].rect = withCoord(rng, nan.entries[i].rect, math.NaN())
			}
			if best, ok := pickFree(&nan, rn); ok {
				t.Fatalf("trial %d: pickFree answered %d with a NaN coordinate in %v or %v", trial, best, nan.entries, rn)
			}
		}
		for i := range n.entries {
			if n.entries[i].rect.ContainsRect(r) {
				inside++
				break
			}
		}
		if n.level == 1 {
			leafLevel++
			if _, ok := pickFree(n, r); ok {
				free++
			}
		}
		if got, want := tr.pickChild(n, r), refPickChild(n, r); got != want {
			t.Fatalf("trial %d: pickChild = %d, reference = %d\nnode level %d: %v\nrect %v",
				trial, got, want, n.level, n.entries, r)
		}
	}
	t.Logf("r inside an entry in %d of %d trials; pickFree answered %d of %d at leaf-pointing nodes",
		inside, trials, free, leafLevel)
	if inside < trials/2 {
		t.Fatalf("r lies inside an entry in only %d of %d trials, want at least half", inside, trials)
	}
	if free < leafLevel/4 || free > leafLevel*3/4 {
		t.Fatalf("pickFree answered %d of %d leaf-pointing trials: both it and the full scan need exercise", free, leafLevel)
	}
}

// rectInside returns a rectangle inside e: e itself, a random sub-rectangle,
// or a point or segment on one of e's edges.
func rectInside(rng *rand.Rand, e geom.Rect) geom.Rect {
	at := func(lo, hi float64) float64 {
		if v := lo + rng.Float64()*(hi-lo); v <= hi {
			return v
		}
		return hi
	}
	switch rng.Intn(4) {
	case 0:
		return e
	case 1:
		x0, x1 := at(e.MinX, e.MaxX), at(e.MinX, e.MaxX)
		y0, y1 := at(e.MinY, e.MaxY), at(e.MinY, e.MaxY)
		return geom.Rect{MinX: min(x0, x1), MinY: min(y0, y1), MaxX: max(x0, x1), MaxY: max(y0, y1)}
	case 2: // a point on a vertical edge
		x := e.MinX
		if rng.Intn(2) == 0 {
			x = e.MaxX
		}
		return geom.RectAround(geom.Pt(x, at(e.MinY, e.MaxY)))
	default: // a horizontal edge, whole
		y := e.MinY
		if rng.Intn(2) == 0 {
			y = e.MaxY
		}
		return geom.Rect{MinX: e.MinX, MinY: y, MaxX: e.MaxX, MaxY: y}
	}
}

// nudgedOut returns r with one bound moved one ulp past the same edge of e.
func nudgedOut(rng *rand.Rand, r, e geom.Rect) geom.Rect {
	switch rng.Intn(4) {
	case 0:
		r.MinX = math.Nextafter(e.MinX, math.Inf(-1))
	case 1:
		r.MinY = math.Nextafter(e.MinY, math.Inf(-1))
	case 2:
		r.MaxX = math.Nextafter(e.MaxX, math.Inf(1))
	default:
		r.MaxY = math.Nextafter(e.MaxY, math.Inf(1))
	}
	return r
}

// hostileRect returns r inverted along x or along both axes (which makes its
// area positive), or with one coordinate replaced by +Inf or -Inf.
func hostileRect(rng *rand.Rand, r geom.Rect) geom.Rect {
	switch rng.Intn(4) {
	case 0:
		r.MinX, r.MaxX = r.MaxX+1, r.MinX
		return r
	case 1:
		r.MinX, r.MaxX = r.MaxX+1, r.MinX
		r.MinY, r.MaxY = r.MaxY+1, r.MinY
		return r
	}
	return withCoord(rng, r, math.Inf(1-2*rng.Intn(2)))
}

// withCoord returns r with one coordinate, chosen at random, replaced by v.
func withCoord(rng *rand.Rand, r geom.Rect, v float64) geom.Rect {
	switch rng.Intn(4) {
	case 0:
		r.MinX = v
	case 1:
		r.MinY = v
	case 2:
		r.MaxX = v
	default:
		r.MaxY = v
	}
	return r
}

// refReinsertOrder is the order forcedReinsert left a node's entries in
// before it computed each centre distance once and sorted with a tree-owned
// sort.Interface, kept verbatim: sort.Slice with the distances computed
// inline. TestForcedReinsertOrderMatchesReference compares against it.
func refReinsertOrder(n *Node) {
	c := n.mbr().Center()
	sort.Slice(n.entries, func(i, j int) bool {
		return n.entries[i].rect.Center().Dist2(c) < n.entries[j].rect.Center().Dist2(c)
	})
}

// TestForcedReinsertOrderMatchesReference checks that sortByCenterDist puts
// a node's entries in the same order as refReinsertOrder, entry for entry,
// on seeded nodes of 2 to 40 entries (an overflowing capacity-16 node has
// 17; past 12 the sort leaves insertion sort). The rectangles come from
// TestTreeShapeGolden's tie-rich distribution (points, exact repeats, shared
// edges, ±0), and a third of the nodes mirror entries through the centre of
// the node, so many distances tie and the sort's handling of equal keys
// decides the order. Every entry has its own ID, so any difference shows.
func TestForcedReinsertOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var tr Tree
	var pool []geom.Rect
	got, want := &Node{}, &Node{}
	tiedNodes := 0
	const trials = 20000
	for trial := 0; trial < trials; trial++ {
		count := 2 + rng.Intn(39)
		got.entries = got.entries[:0]
		mirror := rng.Intn(3) == 0
		for i := 0; i < count; i++ {
			r := goldenRect(rng, pool)
			if mirror && i%2 == 1 {
				// Reflect the previous entry through the origin-centred
				// square [-1/2, 1/2]²'s centre, exactly.
				p := got.entries[i-1].rect
				r = geom.Rect{MinX: -p.MaxX, MinY: -p.MaxY, MaxX: -p.MinX, MaxY: -p.MinY}
			}
			pool = append(pool, r)
			got.entries = append(got.entries, entry{rect: r, item: Item{ID: uint64(i), Rect: r}})
		}
		if len(pool) > 256 {
			pool = pool[len(pool)-256:]
		}
		want.entries = append(want.entries[:0], got.entries...)
		refReinsertOrder(want)
		c := got.mbr().Center()
		tr.sortByCenterDist(got.entries, c)
		for i := range got.entries {
			if got.entries[i].item.ID != want.entries[i].item.ID {
				t.Fatalf("trial %d (%d entries): position %d holds entry %d, reference %d",
					trial, count, i, got.entries[i].item.ID, want.entries[i].item.ID)
			}
		}
		for i := 1; i < len(got.entries); i++ {
			//lint:allow floatcmp counting exact ties, the case the test is about
			if got.entries[i].rect.Center().Dist2(c) == got.entries[i-1].rect.Center().Dist2(c) {
				tiedNodes++
				break
			}
		}
	}
	t.Logf("%d of %d nodes have tied distances", tiedNodes, trials)
	if tiedNodes < trials/4 {
		t.Fatalf("only %d of %d nodes have tied distances", tiedNodes, trials)
	}
}
