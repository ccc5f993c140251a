package rtree

import (
	"math"
	"math/rand"
	"reflect"
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
// which run the overlap loop, and for higher nodes, which do not.
func TestPickChildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var tr Tree
	var pool []geom.Rect
	n := &Node{}
	for trial := 0; trial < 120000; trial++ {
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
		r := goldenRect(rng, pool)
		if got, want := tr.pickChild(n, r), refPickChild(n, r); got != want {
			t.Fatalf("trial %d: pickChild = %d, reference = %d\nnode level %d: %v\nrect %v",
				trial, got, want, n.level, n.entries, r)
		}
	}
}
