package rtree

import (
	"cmp"
	"math"
	"slices"

	"srb/internal/geom"
)

// pack places the pending items with Sort-Tile-Recursive packing
// (Leutenegger et al., ICDE 1997) and empties the buffer. Leaves hold
// 2·min−1 entries, the fewest for which strPack's even split keeps every
// leaf at min or above; the rest of each leaf is room for updates and
// inserts. Upper levels are packed full. It runs once per population, not
// per update.
//
//srb:coldpath
func (t *Tree) pack() {
	entries := make([]entry, len(t.pending))
	for i, it := range t.pending {
		entries[i] = entry{rect: it.Rect, item: it}
	}
	t.pending, t.pendingAt = nil, make(map[uint64]int)
	t.leafOf = make(map[uint64]*Node, len(entries))
	per := 2*t.min - 1
	for level := 0; ; level++ {
		nodes := strPack(entries, per, level)
		for _, n := range nodes {
			t.reparent(n)
		}
		if len(nodes) == 1 {
			t.root = nodes[0]
			return
		}
		entries = make([]entry, len(nodes))
		for i, n := range nodes {
			entries[i] = entry{rect: n.mbr(), child: n}
		}
		per = t.max
	}
}

// strPack groups entries into nodes of the given level using STR tiling,
// reordering entries in place: sorted by center x into ⌈√k⌉ vertical slabs
// for k = ⌈n/per⌉ nodes, each slab sorted by center y and cut into nodes of
// at most per entries. Group sizes are distributed evenly rather than
// greedily, so with more than one node every node holds at least
// ⌊(per+1)/2⌋ entries.
func strPack(entries []entry, per, level int) []*Node {
	n := len(entries)
	slabs := int(math.Ceil(math.Sqrt(float64((n + per - 1) / per))))
	slices.SortFunc(entries, func(a, b entry) int { return cmp.Compare(centerX(a.rect), centerX(b.rect)) })
	var nodes []*Node
	for _, slabSize := range splitEven(n, slabs*per) {
		slab := entries[:slabSize]
		entries = entries[slabSize:]
		slices.SortFunc(slab, func(a, b entry) int { return cmp.Compare(centerY(a.rect), centerY(b.rect)) })
		for _, size := range splitEven(len(slab), per) {
			nodes = append(nodes, &Node{level: level, entries: append([]entry(nil), slab[:size]...)})
			slab = slab[size:]
		}
	}
	return nodes
}

// splitEven partitions n into ⌈n/maxPer⌉ sizes that differ by at most one,
// each ≤ maxPer.
func splitEven(n, maxPer int) []int {
	if n <= 0 {
		return nil
	}
	k := (n + maxPer - 1) / maxPer
	base := n / k
	rem := n % k
	out := make([]int, k)
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

func centerX(r geom.Rect) float64 { return (r.MinX + r.MaxX) / 2 }
func centerY(r geom.Rect) float64 { return (r.MinY + r.MaxY) / 2 }
