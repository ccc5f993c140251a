package rtree

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"srb/internal/geom"
)

// TestFallbackWriteAllocs pins the allocations of Update's fallback, Delete +
// top-down Insert, through a forced reinsertion. In a seeded capacity-16 tree
// (200 random points packed, 300 more inserted on the R* path), item 385
// makes a round trip to a far point and back. Both moves leave the item's
// leaf and take the fallback; each round trip forces exactly one reinsertion,
// splits nothing and leaves the tree's shape as it found it, so every call
// does the same work. Warm, a round trip allocates nothing: forcedReinsert,
// split and condense work in the tree's scratch. With forcedReinsert sorting
// by sort.Slice and copying the removed entries into a new slice, the same
// round trip allocated 4 objects.
func TestFallbackWriteAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(209))
	tr := NewWithCapacity(16)
	for id := uint64(0); id < 500; id++ {
		if id == 200 {
			tr.Root() // pack the first 200; the rest take the R* insert
		}
		tr.Insert(id, geom.RectAround(geom.Pt(rng.Float64(), rng.Float64())))
	}
	const id = 385
	home, _ := tr.Get(id)
	away := geom.RectAround(geom.Pt(0.75, 0.84))
	roundTrip := func() {
		tr.Update(id, away)
		tr.Update(id, home)
	}
	for i := 0; i < 6; i++ {
		roundTrip()
	}
	shape := func() uint64 {
		h := fnv.New64a()
		hashShape(h, tr.Root())
		return h.Sum64()
	}
	want := shape()
	for i := 0; i < 16; i++ {
		splits, reinserts, _, slow := tr.Stats()
		roundTrip()
		splits2, reinserts2, _, slow2 := tr.Stats()
		if splits2 != splits || reinserts2 != reinserts+1 || slow2 != slow+2 || shape() != want {
			t.Fatalf("round trip %d: %d splits, %d forced reinsertions, %d fallbacks, shape changed %v; "+
				"want 0, 1, 2 and the same shape", i, splits2-splits, reinserts2-reinserts, slow2-slow, shape() != want)
		}
	}
	if got := testing.AllocsPerRun(200, roundTrip); got != 0 {
		t.Errorf("a fallback round trip with a forced reinsertion allocates %.1f objects, want 0", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
