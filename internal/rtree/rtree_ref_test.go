package rtree

import (
	"math"
	"math/rand"
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
