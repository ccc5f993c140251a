package rtree

import (
	"container/heap"

	"srb/internal/geom"
)

// NearestIter enumerates items in non-decreasing order of their rectangle's
// minimum distance δ(q, ·) to a query point, using best-first search
// (Hjaltason & Samet, TODS 1999). It is incremental: callers pull as many
// neighbors as they need.
type NearestIter struct {
	q  geom.Point
	pq distHeap
}

type distEntry struct {
	dist float64
	node *Node // nil when this is an item
	item Item
}

type distHeap []distEntry

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distEntry)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Nearest returns an iterator over items ordered by δ(q, rect).
func (t *Tree) Nearest(q geom.Point) *NearestIter {
	it := &NearestIter{q: q}
	if t.size > 0 {
		t.flush()
		it.pq = append(it.pq, distEntry{dist: 0, node: t.root})
	}
	return it
}

// Next returns the next item and its δ distance; ok=false when exhausted.
func (it *NearestIter) Next() (Item, float64, bool) {
	for len(it.pq) > 0 {
		top := heap.Pop(&it.pq).(distEntry)
		if top.node == nil {
			return top.item, top.dist, true
		}
		n := top.node
		for i := range n.entries {
			e := &n.entries[i]
			d := e.rect.MinDist(it.q)
			if e.child != nil {
				heap.Push(&it.pq, distEntry{dist: d, node: e.child})
			} else {
				heap.Push(&it.pq, distEntry{dist: d, item: e.item})
			}
		}
	}
	return Item{}, 0, false
}

// KNearest returns the k items with smallest δ(q, rect), fewer when the tree
// holds fewer than k items.
func (t *Tree) KNearest(q geom.Point, k int) []Item {
	it := t.Nearest(q)
	out := make([]Item, 0, k)
	for len(out) < k {
		item, _, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, item)
	}
	return out
}
