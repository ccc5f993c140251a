package rtree

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"srb/internal/geom"
)

// TestTreeShapeGolden pins the exact shape the R*-tree builds for a seeded
// stream of Insert/Update/Delete calls: which entries share a node, in what
// order, under which bounding rectangles (bit for bit). The stream mixes
// point rectangles, identical rectangles, shared edges and ±0 coordinates,
// the inputs on which a change to ChooseSubtree, the forced-reinsert order,
// the split or Update's choice among its bottom-up moves would first show.
// The constants were last replaced, on purpose, when Update gained the
// sibling move and grow-in-place. Both streams begin by buffering inserts
// into an empty tree and pack them at the first Delete (capacity 4 packs one
// item at op 3 and ten at op 27, capacity 16 twelve at op 27); neither tree
// keeps a trace of it by op 5000. Optimizations that keep the tree's shape
// must leave them alone. A change that moves them changes
// the tree, and with it the order of search results, which the monitor must
// not depend on (the tree-shape scenario in internal/parallel and
// TestPackedTreeMatchesIncremental in internal/core check that it does not).
func TestTreeShapeGolden(t *testing.T) {
	for _, tc := range []struct {
		capacity int
		want     uint64
	}{
		{4, 0x6370ebd0faf63e2f},
		{16, 0x2af0b20f9eae47a9},
	} {
		got, tr := shapeStreamHash(tc.capacity, 60000)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("capacity %d: %v", tc.capacity, err)
		}
		if splits, reinserts, fast, slow := tr.Stats(); splits == 0 || reinserts == 0 || fast == 0 || slow == 0 ||
			tr.siblingMoves == 0 || tr.grownLeaves == 0 {
			t.Fatalf("capacity %d: stream misses a write path: splits %d reinserts %d fast %d slow %d sibling moves %d grown leaves %d",
				tc.capacity, splits, reinserts, fast, slow, tr.siblingMoves, tr.grownLeaves)
		}
		if got != tc.want {
			t.Errorf("capacity %d: shape hash %#x, want %#x", tc.capacity, got, tc.want)
		}
	}
}

// goldenLive caps the live population so the stream stays quick; once it is
// reached, would-be inserts move a live ID instead.
const goldenLive = 2000

// shapeStreamHash runs ops seeded calls against a tree of the given capacity
// and folds a shape hash of the tree into one FNV-64a digest every 5000 ops.
func shapeStreamHash(capacity, ops int) (uint64, *Tree) {
	rng := rand.New(rand.NewSource(int64(capacity)))
	tr := NewWithCapacity(capacity)
	h := fnv.New64a()
	var live []uint64
	var pool []geom.Rect // earlier rectangles, reused to make exact duplicates
	nextID := uint64(0)
	for op := 1; op <= ops; op++ {
		r := goldenRect(rng, pool)
		if len(pool) < 256 {
			pool = append(pool, r)
		} else {
			pool[rng.Intn(len(pool))] = r
		}
		switch k := rng.Intn(10); {
		case k < 4 && len(live) < goldenLive || len(live) == 0: // insert a new ID
			tr.Insert(nextID, r)
			live = append(live, nextID)
			nextID++
		case k < 6: // move a live ID anywhere: mostly the slow path
			tr.Update(live[rng.Intn(len(live))], r)
		case k < 8: // shrink a live ID to a point inside itself: the fast path
			id := live[rng.Intn(len(live))]
			old, _ := tr.Get(id)
			tr.Update(id, geom.RectAround(old.Center()))
		case k < 9: // re-insert a live ID, which Insert turns into an Update
			tr.Insert(live[rng.Intn(len(live))], r)
		default:
			i := rng.Intn(len(live))
			tr.Delete(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if op%5000 == 0 {
			hashShape(h, tr.Root())
		}
	}
	return h.Sum64(), tr
}

// goldenRect draws a rectangle from a distribution rich in ties: a quarter
// are points, a tenth repeat an earlier rectangle exactly, and coordinates
// snap to a 1/32 grid (so edges are shared) or land on ±0.
func goldenRect(rng *rand.Rand, pool []geom.Rect) geom.Rect {
	if len(pool) > 0 && rng.Intn(10) == 0 {
		return pool[rng.Intn(len(pool))]
	}
	coord := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2, 3, 4:
			return float64(rng.Intn(33)-4) / 32
		default:
			return rng.Float64()
		}
	}
	x, y := coord(), coord()
	if rng.Intn(4) == 0 {
		return geom.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y}
	}
	return geom.R(x, y, x+float64(rng.Intn(5))/32, y+rng.Float64()*0.1)
}

// hashShape writes a pre-order walk of n into h: level, entry count, the bits
// of every entry rectangle and, at the leaves, the item IDs.
func hashShape(h hash.Hash64, n *Node) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(n.level))
	put(uint64(len(n.entries)))
	for i := range n.entries {
		e := &n.entries[i]
		put(math.Float64bits(e.rect.MinX))
		put(math.Float64bits(e.rect.MinY))
		put(math.Float64bits(e.rect.MaxX))
		put(math.Float64bits(e.rect.MaxY))
		if e.child != nil {
			hashShape(h, e.child)
		} else {
			put(e.item.ID)
		}
	}
}
