// Package rtree implements an in-memory R*-tree (Beckmann et al., SIGMOD
// 1990) over axis-aligned rectangles. It is the object index of the
// monitoring framework (Section 3.2 of the paper): leaf entries are the safe
// regions (or exact positions) of moving objects, keyed by object ID.
//
// Because safe regions change on every location update, the tree supports the
// bottom-up update technique of Lee et al. (VLDB 2003): a hash index from
// object ID to its leaf makes in-place updates O(1) when the new rectangle
// still fits the leaf's bounding box, falling back to a localized
// delete+reinsert otherwise.
package rtree

import (
	"fmt"
	"math"
	"sort"

	"srb/internal/geom"
)

// Item is a leaf payload: an object ID together with its indexed rectangle.
type Item struct {
	ID   uint64
	Rect geom.Rect
}

const (
	defaultMax = 16
	// reinsertFraction is the R* forced-reinsertion share (30 %).
	reinsertFraction = 0.3
)

type entry struct {
	rect  geom.Rect
	child *Node // nil for leaf-level entries
	item  Item  // valid when child == nil
}

// Node is a tree node, exported opaquely so that query algorithms (e.g. the
// best-first kNN of Algorithm 2) can traverse the index with their own
// priority queues.
type Node struct {
	parent  *Node
	level   int // 0 for leaves
	entries []entry
}

// IsLeaf reports whether the node stores items rather than child nodes.
func (n *Node) IsLeaf() bool { return n.level == 0 }

// Count returns the number of entries in the node.
func (n *Node) Count() int { return len(n.entries) }

// ChildAt returns the i-th child node of an internal node.
func (n *Node) ChildAt(i int) *Node { return n.entries[i].child }

// ItemAt returns the i-th item of a leaf node.
func (n *Node) ItemAt(i int) Item { return n.entries[i].item }

// RectAt returns the bounding rectangle of the i-th entry.
func (n *Node) RectAt(i int) geom.Rect { return n.entries[i].rect }

func (n *Node) mbr() geom.Rect {
	r := n.entries[0].rect
	for _, e := range n.entries[1:] {
		r = r.Union(e.rect)
	}
	return r
}

// Tree is an R*-tree. It is not safe for concurrent mutation; the framework
// serializes location updates (Section 3 assumption 2).
type Tree struct {
	root   *Node
	size   int
	max    int
	min    int
	leafOf map[uint64]*Node

	// reinserted has bit l set once level l has been force-reinserted during
	// the current top-level insertion (R* OverflowTreatment runs at most once
	// per level per insertion). Insert and condense reset it.
	reinserted uint64

	// Stats counters, useful for the CPU-cost experiments and ablations.
	splits      int
	reinserts   int
	fastUpdates int
	slowUpdates int
}

// New returns an empty tree with the default node capacity.
func New() *Tree { return NewWithCapacity(defaultMax) }

// NewWithCapacity returns an empty tree whose nodes hold up to max entries.
func NewWithCapacity(max int) *Tree {
	if max < 4 {
		max = 4
	}
	return &Tree{
		root:   &Node{level: 0},
		max:    max,
		min:    max * 2 / 5, // R* recommends m ≈ 40 % of M
		leafOf: make(map[uint64]*Node),
	}
}

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 for a tree that is a single leaf).
func (t *Tree) Height() int { return t.root.level + 1 }

// Root returns the root node for external traversals.
func (t *Tree) Root() *Node { return t.root }

// Bounds returns the bounding rectangle of all items and false when empty.
func (t *Tree) Bounds() (geom.Rect, bool) {
	if t.size == 0 {
		return geom.Rect{}, false
	}
	return t.root.mbr(), true
}

// Stats reports internal counters: node splits, forced reinsertions, and how
// many updates took the fast bottom-up path versus delete+reinsert.
func (t *Tree) Stats() (splits, reinserts, fastUpdates, slowUpdates int) {
	return t.splits, t.reinserts, t.fastUpdates, t.slowUpdates
}

// Insert adds an item. Inserting an ID that is already present replaces its
// rectangle (via Update).
func (t *Tree) Insert(id uint64, r geom.Rect) {
	if _, ok := t.leafOf[id]; ok {
		t.Update(id, r)
		return
	}
	t.reinserted = 0
	t.insertEntry(entry{rect: r, item: Item{ID: id, Rect: r}}, 0)
	t.size++
}

// Delete removes the item with the given ID, reporting whether it existed.
func (t *Tree) Delete(id uint64) bool {
	leaf, ok := t.leafOf[id]
	if !ok {
		return false
	}
	idx := -1
	for i := range leaf.entries {
		if leaf.entries[i].child == nil && leaf.entries[i].item.ID == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		// The leaf map is maintained on every structural change; a miss here
		// would be an invariant violation.
		panic(fmt.Sprintf("rtree: leaf map points to node without item %d", id))
	}
	leaf.entries = append(leaf.entries[:idx], leaf.entries[idx+1:]...)
	delete(t.leafOf, id)
	t.size--
	t.condense(leaf)
	return true
}

// Update changes the rectangle of an existing item using the bottom-up path
// when possible. Unknown IDs are inserted.
func (t *Tree) Update(id uint64, r geom.Rect) {
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

// Get returns the stored rectangle for an ID.
func (t *Tree) Get(id uint64) (geom.Rect, bool) {
	leaf, ok := t.leafOf[id]
	if !ok {
		return geom.Rect{}, false
	}
	for i := range leaf.entries {
		if leaf.entries[i].child == nil && leaf.entries[i].item.ID == id {
			return leaf.entries[i].rect, true
		}
	}
	return geom.Rect{}, false
}

// Search invokes fn for every item whose rectangle intersects q, stopping
// early when fn returns false.
func (t *Tree) Search(q geom.Rect, fn func(Item) bool) {
	t.search(t.root, q, fn)
}

func (t *Tree) search(n *Node, q geom.Rect, fn func(Item) bool) bool {
	for i := range n.entries {
		e := &n.entries[i]
		if !e.rect.Intersects(q) {
			continue
		}
		if e.child != nil {
			if !t.search(e.child, q, fn) {
				return false
			}
		} else if !fn(e.item) {
			return false
		}
	}
	return true
}

// All invokes fn for every stored item.
func (t *Tree) All(fn func(Item) bool) {
	if t.size == 0 {
		return
	}
	t.search(t.root, t.root.mbr(), fn)
}

func (n *Node) entryOf(child *Node) *entry {
	for i := range n.entries {
		if n.entries[i].child == child {
			return &n.entries[i]
		}
	}
	panic("rtree: parent does not reference child")
}

// --- insertion --------------------------------------------------------------

func (t *Tree) insertEntry(e entry, level int) {
	n := t.chooseSubtree(e.rect, level)
	n.entries = append(n.entries, e)
	if e.child != nil {
		e.child.parent = n
	} else {
		t.leafOf[e.item.ID] = n
	}
	t.adjustUpward(n)
	if len(n.entries) > t.max {
		t.overflow(n)
	}
}

func (t *Tree) chooseSubtree(r geom.Rect, level int) *Node {
	n := t.root
	for n.level > level {
		best := t.pickChild(n, r)
		n = n.entries[best].child
	}
	return n
}

// pickChild implements the R* ChooseSubtree heuristic: minimum overlap
// enlargement for nodes pointing to leaves, otherwise minimum area
// enlargement, with ties broken by smaller area.
func (t *Tree) pickChild(n *Node, r geom.Rect) int {
	best := 0
	bestOverlap := math.Inf(1)
	bestEnlarge := math.Inf(1)
	bestArea := math.Inf(1)
	pointsToLeaves := n.level == 1
	for i := range n.entries {
		e := &n.entries[i]
		u := e.rect.Union(r)
		area := e.rect.Area()
		enlarge := u.Area() - area
		overlap := 0.0
		if pointsToLeaves {
			for j := range n.entries {
				o := &n.entries[j].rect
				// e.rect ⊆ u, so an entry disjoint from u meets neither and
				// both terms below would be skipped anyway.
				if j == i || !u.Intersects(*o) {
					continue
				}
				if a, ok := overlapArea(&u, o); ok {
					overlap += a
				}
				if a, ok := overlapArea(&e.rect, o); ok {
					overlap -= a
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

// overlapArea returns the area of a ∩ b and whether the intersection is
// non-empty: a.Intersect(b).Area() and IsValid, bit for bit, without
// building the intermediate Rect.
func overlapArea(a, b *geom.Rect) (float64, bool) {
	minX, maxX := max(a.MinX, b.MinX), min(a.MaxX, b.MaxX)
	minY, maxY := max(a.MinY, b.MinY), min(a.MaxY, b.MaxY)
	return (maxX - minX) * (maxY - minY), minX <= maxX && minY <= maxY
}

func (t *Tree) adjustUpward(n *Node) {
	for p := n.parent; p != nil; p = p.parent {
		e := p.entryOf(n)
		e.rect = n.mbr()
		n = p
	}
}

func (t *Tree) overflow(n *Node) {
	// A level past the mask's 64 bits (unreachable in practice) just splits.
	if bit := uint64(1) << n.level; n != t.root && bit != 0 && t.reinserted&bit == 0 {
		t.reinserted |= bit
		t.forcedReinsert(n)
		return
	}
	t.split(n)
}

// forcedReinsert removes the 30 % of entries farthest from the node center
// and reinserts them (R* OverflowTreatment).
func (t *Tree) forcedReinsert(n *Node) {
	t.reinserts++
	c := n.mbr().Center()
	sort.Slice(n.entries, func(i, j int) bool {
		return n.entries[i].rect.Center().Dist2(c) < n.entries[j].rect.Center().Dist2(c)
	})
	k := int(float64(len(n.entries)) * reinsertFraction)
	if k < 1 {
		k = 1
	}
	cut := len(n.entries) - k
	removed := make([]entry, k)
	copy(removed, n.entries[cut:])
	n.entries = n.entries[:cut]
	t.adjustUpward(n)
	for _, e := range removed {
		t.insertEntry(e, n.level)
	}
}

// split performs the R* topological split: choose the axis with minimum
// margin sum, then the distribution with minimum overlap (ties: minimum
// total area).
func (t *Tree) split(n *Node) {
	t.splits++
	entries := n.entries

	bestAxisMargin := math.Inf(1)
	var bestSorted []entry
	for axis := 0; axis < 2; axis++ {
		sorted := make([]entry, len(entries))
		copy(sorted, entries)
		sortByAxis(sorted, axis)
		margin := 0.0
		for k := t.min; k <= len(sorted)-t.min; k++ {
			l := mbrOf(sorted[:k])
			r := mbrOf(sorted[k:])
			margin += l.Perimeter() + r.Perimeter()
		}
		if margin < bestAxisMargin {
			bestAxisMargin = margin
			bestSorted = sorted
		}
	}

	bestK := t.min
	bestOverlap := math.Inf(1)
	bestArea := math.Inf(1)
	for k := t.min; k <= len(bestSorted)-t.min; k++ {
		l := mbrOf(bestSorted[:k])
		r := mbrOf(bestSorted[k:])
		ov := 0.0
		inter := l.Intersect(r)
		if inter.IsValid() {
			ov = inter.Area()
		}
		area := l.Area() + r.Area()
		//lint:allow floatcmp split tie-break: exact equality selects the area criterion
		if ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
			bestK, bestOverlap, bestArea = k, ov, area
		}
	}

	left := make([]entry, bestK)
	copy(left, bestSorted[:bestK])
	right := make([]entry, len(bestSorted)-bestK)
	copy(right, bestSorted[bestK:])

	sibling := &Node{level: n.level, entries: right}
	n.entries = left
	t.reparent(n)
	t.reparent(sibling)

	if n == t.root {
		newRoot := &Node{level: n.level + 1}
		newRoot.entries = []entry{
			{rect: n.mbr(), child: n},
			{rect: sibling.mbr(), child: sibling},
		}
		n.parent = newRoot
		sibling.parent = newRoot
		t.root = newRoot
		return
	}
	p := n.parent
	e := p.entryOf(n)
	e.rect = n.mbr()
	p.entries = append(p.entries, entry{rect: sibling.mbr(), child: sibling})
	sibling.parent = p
	t.adjustUpward(p)
	if len(p.entries) > t.max {
		t.overflow(p)
	}
}

func (t *Tree) reparent(n *Node) {
	for i := range n.entries {
		if c := n.entries[i].child; c != nil {
			c.parent = n
		} else {
			t.leafOf[n.entries[i].item.ID] = n
		}
	}
}

// --- deletion ---------------------------------------------------------------

func (t *Tree) condense(n *Node) {
	// Orphaned subtrees are flattened to their leaf items and reinserted as
	// items: reinserting whole subtrees at their original level is fragile
	// when the tree height shrinks during the same condense pass.
	var orphans []Item
	for n != t.root {
		p := n.parent
		if len(n.entries) < t.min {
			for i := range p.entries {
				if p.entries[i].child == n {
					p.entries = append(p.entries[:i], p.entries[i+1:]...)
					break
				}
			}
			collectItems(n, &orphans)
		} else {
			e := p.entryOf(n)
			e.rect = n.mbr()
		}
		n = p
	}
	// Shrink the root while it has a single child.
	for t.root.level > 0 && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
		t.root.parent = nil
	}
	if t.root.level > 0 && len(t.root.entries) == 0 {
		t.root = &Node{level: 0}
	}
	for _, it := range orphans {
		t.reinserted = 0
		t.insertEntry(entry{rect: it.Rect, item: it}, 0)
	}
}

func collectItems(n *Node, out *[]Item) {
	for i := range n.entries {
		if c := n.entries[i].child; c != nil {
			collectItems(c, out)
		} else {
			*out = append(*out, n.entries[i].item)
		}
	}
}

// --- helpers ----------------------------------------------------------------

func sortByAxis(es []entry, axis int) {
	if axis == 0 {
		sort.Slice(es, func(i, j int) bool {
			//lint:allow floatcmp comparator tie-break: exact inequality guards the MaxX fallback
			if es[i].rect.MinX != es[j].rect.MinX {
				return es[i].rect.MinX < es[j].rect.MinX
			}
			return es[i].rect.MaxX < es[j].rect.MaxX
		})
	} else {
		sort.Slice(es, func(i, j int) bool {
			//lint:allow floatcmp comparator tie-break: exact inequality guards the MaxY fallback
			if es[i].rect.MinY != es[j].rect.MinY {
				return es[i].rect.MinY < es[j].rect.MinY
			}
			return es[i].rect.MaxY < es[j].rect.MaxY
		})
	}
}

func mbrOf(es []entry) geom.Rect {
	r := es[0].rect
	for _, e := range es[1:] {
		r = r.Union(e.rect)
	}
	return r
}

// CheckInvariants validates structural invariants (entry counts, MBR
// consistency, parent pointers, leaf map). Intended for tests.
func (t *Tree) CheckInvariants() error {
	count := 0
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n != t.root && (len(n.entries) < t.min || len(n.entries) > t.max) {
			return fmt.Errorf("node at level %d has %d entries (min %d, max %d)", n.level, len(n.entries), t.min, t.max)
		}
		for i := range n.entries {
			e := &n.entries[i]
			if n.level == 0 {
				if e.child != nil {
					return fmt.Errorf("leaf entry with child")
				}
				count++
				if t.leafOf[e.item.ID] != n {
					return fmt.Errorf("leaf map stale for id %d", e.item.ID)
				}
			} else {
				if e.child == nil {
					return fmt.Errorf("internal entry without child")
				}
				if e.child.parent != n {
					return fmt.Errorf("bad parent pointer at level %d", n.level)
				}
				if e.child.level != n.level-1 {
					return fmt.Errorf("level mismatch: child %d under %d", e.child.level, n.level)
				}
				if m := e.child.mbr(); !e.rect.ContainsRect(m) {
					return fmt.Errorf("entry rect %v does not cover child mbr %v", e.rect, m)
				}
				if err := walk(e.child); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("size %d but %d leaf entries", t.size, count)
	}
	if len(t.leafOf) != t.size {
		return fmt.Errorf("leaf map has %d entries, size %d", len(t.leafOf), t.size)
	}
	return nil
}
