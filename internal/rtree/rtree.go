// Package rtree implements an in-memory R*-tree (Beckmann et al., SIGMOD
// 1990) over axis-aligned rectangles. It is the object index of the
// monitoring framework (Section 3.2 of the paper): leaf entries are the safe
// regions (or exact positions) of moving objects, keyed by object ID.
//
// Because safe regions change on every location update, Update follows the
// bottom-up technique of Lee et al. (VLDB 2003). A hash index from object ID
// to its leaf finds the item without a descent, and Update tries, in order:
//
//  1. in place: the new rectangle fits the leaf's entry in its parent;
//  2. sibling move: another leaf under the same parent has room and an entry
//     that already contains the new rectangle, and the item's own leaf can
//     spare it without underflowing;
//  3. grow in place: the new rectangle fits the grandparent's entry for the
//     leaf's parent, so the leaf may grow while no ancestor leaves its own
//     bounds;
//  4. otherwise a full Delete (with condense) and a top-down Insert.
//
// A sibling's entry lies inside the parent's rectangle, so step 2 must come
// before step 3 or it could never run.
//
// A tree populated from empty is not built by top-down insertion. An Insert
// into an empty tree, or into one that is still buffering, appends the item
// to a pending list; Update and Get of a pending ID read or write its
// pending rectangle, and Len counts it. The first call that needs placed
// nodes (Root, Search, All, Nearest, KNearest, Bounds, Height or Delete)
// packs the whole list with Sort-Tile-Recursive packing (Leutenegger et al.,
// ICDE 1997): a balanced tree with little overlap, built in O(n log n)
// instead of n insertions. Leaves get 2·min−1 entries (11 of 16 at the
// default capacity), not a full node, so Update's sibling move finds room
// and a leaf does not split on its first insert. Later inserts take the R*
// path. The monitor's initial population,
// snapshot load and journal replay all insert into a fresh tree before their
// first query, so all three are packed.
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

// Tree is an R*-tree. It is single-writer: even its read methods are not
// safe for concurrent use, because the first of them after a buffered
// population packs the tree. The framework serializes location updates
// (Section 3 assumption 2).
type Tree struct {
	root   *Node
	size   int // placed plus pending items
	max    int
	min    int
	leafOf map[uint64]*Node

	// pending holds, in insertion order, the items inserted while none is
	// placed; pendingAt maps each one's ID to its position. pack empties both.
	pending   []Item
	pendingAt map[uint64]int

	// reinserted has bit l set once level l has been force-reinserted during
	// the current top-level insertion (R* OverflowTreatment runs at most once
	// per level per insertion). Insert and condense reset it.
	reinserted uint64

	// Stats counters, useful for the CPU-cost experiments and ablations.
	// fastUpdates counts every update that avoided Delete + Insert;
	// siblingMoves and grownLeaves count the two local moves among them.
	splits       int
	reinserts    int
	fastUpdates  int
	slowUpdates  int
	siblingMoves int
	grownLeaves  int
}

// New returns an empty tree with the default node capacity.
func New() *Tree { return NewWithCapacity(defaultMax) }

// NewWithCapacity returns an empty tree whose nodes hold up to max entries.
func NewWithCapacity(max int) *Tree {
	if max < 4 {
		max = 4
	}
	return &Tree{
		root:      &Node{level: 0},
		max:       max,
		min:       max * 2 / 5, // R* recommends m ≈ 40 % of M
		leafOf:    make(map[uint64]*Node),
		pendingAt: make(map[uint64]int),
	}
}

// Len returns the number of stored items, pending ones included.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 for a tree that is a single leaf).
func (t *Tree) Height() int {
	t.flush()
	return t.root.level + 1
}

// Root returns the root node for external traversals.
func (t *Tree) Root() *Node {
	t.flush()
	return t.root
}

// Bounds returns the bounding rectangle of all items and false when empty.
func (t *Tree) Bounds() (geom.Rect, bool) {
	if t.size == 0 {
		return geom.Rect{}, false
	}
	t.flush()
	return t.root.mbr(), true
}

// Stats reports internal counters: node splits, forced reinsertions, and how
// many updates took one of the bottom-up moves versus delete+reinsert.
func (t *Tree) Stats() (splits, reinserts, fastUpdates, slowUpdates int) {
	return t.splits, t.reinserts, t.fastUpdates, t.slowUpdates
}

// Insert adds an item. Inserting an ID that is already present replaces its
// rectangle (via Update).
func (t *Tree) Insert(id uint64, r geom.Rect) {
	_, placed := t.leafOf[id]
	if _, pending := t.pendingAt[id]; placed || pending {
		t.Update(id, r)
		return
	}
	if t.size == len(t.pending) {
		// Nothing is placed: buffer the item until a call needs nodes.
		t.pendingAt[id] = len(t.pending)
		t.pending = append(t.pending, Item{ID: id, Rect: r})
		t.size++
		return
	}
	t.reinserted = 0
	t.insertEntry(entry{rect: r, item: Item{ID: id, Rect: r}}, 0)
	t.size++
}

// Delete removes the item with the given ID, reporting whether it existed.
func (t *Tree) Delete(id uint64) bool {
	t.flush()
	leaf, ok := t.leafOf[id]
	if !ok {
		return false
	}
	leaf.removeAt(leaf.itemIndex(id))
	delete(t.leafOf, id)
	t.size--
	t.condense(leaf)
	return true
}

// Update changes the rectangle of an existing item, trying the bottom-up
// moves described in the package comment before delete+reinsert. A pending
// item's rectangle is overwritten. Unknown IDs are inserted.
func (t *Tree) Update(id uint64, r geom.Rect) {
	leaf, ok := t.leafOf[id]
	if !ok {
		if i, ok := t.pendingAt[id]; ok {
			t.pending[i].Rect = r
			return
		}
		t.Insert(id, r)
		return
	}
	i := leaf.itemIndex(id)
	p := leaf.parent
	// In place: the new rectangle stays inside the leaf's entry in its parent
	// (or the leaf is the root), so no ancestor rectangle needs to change.
	if p == nil || p.entryOf(leaf).rect.ContainsRect(r) {
		leaf.entries[i].setRect(r)
		t.fastUpdates++
		return
	}
	// Sibling move: the sibling's entry already covers r, so only the source
	// leaf's ancestors need their rectangles recomputed.
	if sib := t.coveringSibling(leaf, r); sib != nil {
		e := leaf.entries[i]
		e.setRect(r)
		leaf.removeAt(i)
		sib.entries = append(sib.entries, e)
		t.leafOf[id] = sib
		t.adjustUpward(leaf)
		t.fastUpdates++
		t.siblingMoves++
		return
	}
	// Grow in place: r fits the grandparent's entry for p, so the leaf grows
	// but p's rectangle does not; adjustUpward recomputes every ancestor
	// entry exactly.
	if g := p.parent; g != nil && g.entryOf(p).rect.ContainsRect(r) {
		leaf.entries[i].setRect(r)
		t.adjustUpward(leaf)
		t.fastUpdates++
		t.grownLeaves++
		return
	}
	t.slowUpdates++
	t.Delete(id)
	t.Insert(id, r)
}

// coveringSibling returns the smallest-area leaf (lowest index on a tie)
// under leaf's parent, other than leaf, whose entry contains r and which has
// room for one more item, or nil when there is none or leaf would underflow
// by giving up an item.
func (t *Tree) coveringSibling(leaf *Node, r geom.Rect) *Node {
	if len(leaf.entries) <= t.min {
		return nil
	}
	var best *Node
	bestArea := math.Inf(1)
	for i := range leaf.parent.entries {
		e := &leaf.parent.entries[i]
		if e.child == leaf || len(e.child.entries) >= t.max || !e.rect.ContainsRect(r) {
			continue
		}
		if a := e.rect.Area(); a < bestArea {
			best, bestArea = e.child, a
		}
	}
	return best
}

// Get returns the stored rectangle for an ID.
func (t *Tree) Get(id uint64) (geom.Rect, bool) {
	leaf, ok := t.leafOf[id]
	if !ok {
		if i, ok := t.pendingAt[id]; ok {
			return t.pending[i].Rect, true
		}
		return geom.Rect{}, false
	}
	return leaf.entries[leaf.itemIndex(id)].rect, true
}

// itemIndex returns the position of id's entry in the leaf n. The leaf map is
// maintained on every structural change; a miss here would be an invariant
// violation.
func (n *Node) itemIndex(id uint64) int {
	for i := range n.entries {
		if n.entries[i].child == nil && n.entries[i].item.ID == id {
			return i
		}
	}
	panic(fmt.Sprintf("rtree: leaf map points to node without item %d", id))
}

// removeAt deletes the i-th entry in place, keeping the order of the rest.
func (n *Node) removeAt(i int) {
	copy(n.entries[i:], n.entries[i+1:])
	n.entries = n.entries[:len(n.entries)-1]
}

// setRect replaces a leaf entry's rectangle, which the item also carries.
func (e *entry) setRect(r geom.Rect) {
	e.rect = r
	e.item.Rect = r
}

// Search invokes fn for every item whose rectangle intersects q, stopping
// early when fn returns false.
func (t *Tree) Search(q geom.Rect, fn func(Item) bool) {
	t.flush()
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
	t.flush()
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

// flush places the pending items, if there are any.
func (t *Tree) flush() {
	if len(t.pending) > 0 {
		t.pack()
	}
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
// consistency, parent pointers, leaf map) and the pending buffer (size =
// placed + pending, nothing placed while items are pending, the position
// index), without packing. Intended for tests.
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
	if count+len(t.pending) != t.size {
		return fmt.Errorf("size %d but %d leaf entries and %d pending", t.size, count, len(t.pending))
	}
	if len(t.leafOf) != count {
		return fmt.Errorf("leaf map has %d entries, %d leaf entries", len(t.leafOf), count)
	}
	// Nothing is placed while items are pending, so no ID is in both.
	if len(t.pending) > 0 && count > 0 {
		return fmt.Errorf("%d items pending while %d are placed", len(t.pending), count)
	}
	if len(t.pendingAt) != len(t.pending) {
		return fmt.Errorf("position index has %d entries, %d pending", len(t.pendingAt), len(t.pending))
	}
	for i, it := range t.pending {
		if j, ok := t.pendingAt[it.ID]; !ok || j != i {
			return fmt.Errorf("position index stale for pending id %d", it.ID)
		}
	}
	return nil
}
