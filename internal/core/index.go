package core

import (
	"srb/internal/geom"
	"srb/internal/rtree"
)

// ObjIndex is the spatial index over object safe regions. The Monitor owns
// exactly one, a single R*-tree (localIndex). The interface is deliberately
// shaped so that every monitor algorithm produces bit-identical state
// regardless of the tree's shape — LoadSnapshot and ReplayJournal rebuild a
// tree whose shape differs from the live one:
//
//   - Collect returns candidate sets, not candidate sequences: callers sort
//     by object ID before visiting, so probe order and result order never
//     depend on tree shape.
//   - Best-first kNN search sees the index as a set of (shard, root) seeds
//     plus a Visit expansion primitive; the evalPQ comparator (evaluate.go)
//     orders equal-key entries canonically, which makes the object pop
//     sequence a pure function of monitor state (see DESIGN.md §14
//     "Determinism guarantees").
//
// Implementations are not required to be safe for concurrent use: the
// Monitor serializes all calls, mirroring its own single-writer contract.
type ObjIndex interface {
	// Insert adds an object's safe region to the index. The id must not be
	// present.
	Insert(id uint64, r geom.Rect)
	// Delete removes an object, reporting whether it was present.
	Delete(id uint64) bool
	// Update replaces an object's indexed region.
	Update(id uint64, r geom.Rect)
	// Get returns the indexed region of an object.
	Get(id uint64) (geom.Rect, bool)
	// Len returns the number of indexed objects.
	Len() int
	// Collect appends every indexed item whose region intersects q to dst
	// and returns the extended slice. Order is unspecified — callers that
	// need determinism sort the result (see rangeCandidates).
	Collect(q geom.Rect, dst []rtree.Item) []rtree.Item
	// Seeds yields one (shard, root) pair per non-empty constituent tree,
	// seeding a best-first search frontier. A single-tree index yields at
	// most one seed with shard 0.
	Seeds(yield func(shard int, root *rtree.Node))
	// Visit expands one node of the identified shard's tree, yielding each
	// child entry exactly once. The yield callback runs to completion before
	// Visit returns; implementations may execute it on another goroutine as
	// long as Visit itself provides the happens-before edge.
	Visit(shard int, n *rtree.Node, yield IndexVisitor)
	// CheckInvariants verifies internal index consistency (srbdebug builds
	// and tests).
	CheckInvariants() error
}

// IndexVisitor receives one entry of an expanded index node: either a child
// node with its bounding rect (isItem false) or a leaf item (isItem true).
type IndexVisitor func(child *rtree.Node, childRect geom.Rect, it rtree.Item, isItem bool)

// ExpandNode yields every entry of one R*-tree node through v. It is the
// expansion primitive behind ObjIndex.Visit.
func ExpandNode(n *rtree.Node, v IndexVisitor) {
	for i := 0; i < n.Count(); i++ {
		if n.IsLeaf() {
			v(nil, geom.Rect{}, n.ItemAt(i), true)
		} else {
			v(n.ChildAt(i), n.RectAt(i), rtree.Item{}, false)
		}
	}
}

// localIndex is the default ObjIndex: one R*-tree, zero indirection beyond
// the interface calls.
type localIndex struct {
	t *rtree.Tree
}

func newLocalIndex(capacity int) *localIndex {
	return &localIndex{t: rtree.NewWithCapacity(capacity)}
}

func (x *localIndex) Insert(id uint64, r geom.Rect) { x.t.Insert(id, r) }
func (x *localIndex) Delete(id uint64) bool         { return x.t.Delete(id) }
func (x *localIndex) Update(id uint64, r geom.Rect) { x.t.Update(id, r) }
func (x *localIndex) Get(id uint64) (geom.Rect, bool) {
	return x.t.Get(id)
}
func (x *localIndex) Len() int { return x.t.Len() }

func (x *localIndex) Collect(q geom.Rect, dst []rtree.Item) []rtree.Item {
	x.t.Search(q, func(it rtree.Item) bool {
		dst = append(dst, it)
		return true
	})
	return dst
}

func (x *localIndex) Seeds(yield func(shard int, root *rtree.Node)) {
	if x.t.Len() > 0 {
		yield(0, x.t.Root())
	}
}

func (x *localIndex) Visit(_ int, n *rtree.Node, yield IndexVisitor) {
	ExpandNode(n, yield)
}

func (x *localIndex) CheckInvariants() error { return x.t.CheckInvariants() }
