// Package gridindex implements the in-memory M×M grid index over query
// quarantine areas (Section 3.3). Each cell's bucket lists the queries whose
// quarantine area overlaps the cell, so that a location update only needs to
// inspect the buckets of the cells containing the old and new positions, and
// safe-region computation only needs the "relevant queries" of the object's
// cell.
package gridindex

import (
	"fmt"
	"sort"

	"srb/internal/geom"
	"srb/internal/query"
)

// Grid partitions space into M×M uniform cells, each holding the queries
// whose quarantine bounding box overlaps it.
type Grid struct {
	m     int
	space geom.Rect
	cw    float64 // cell width
	ch    float64 // cell height
	cells []bucket
	// extent remembers the bbox each query was inserted with, so removal and
	// in-place quarantine updates do not depend on the query's mutable state.
	extent map[query.ID]geom.Rect
	size   int
}

type bucket []*query.Query

// New creates an M×M grid over the given space. m must be ≥ 1.
func New(m int, space geom.Rect) *Grid {
	if m < 1 {
		m = 1
	}
	return &Grid{
		m:      m,
		space:  space,
		cw:     space.Width() / float64(m),
		ch:     space.Height() / float64(m),
		cells:  make([]bucket, m*m),
		extent: make(map[query.ID]geom.Rect),
	}
}

// M returns the grid resolution.
func (g *Grid) M() int { return g.m }

// Space returns the indexed space.
func (g *Grid) Space() geom.Rect { return g.space }

// Len returns the number of indexed queries.
func (g *Grid) Len() int { return g.size }

// CellOf returns the (column, row) of the cell containing p, clamped into the
// grid for points on or beyond the boundary.
func (g *Grid) CellOf(p geom.Point) (int, int) {
	i := int((p.X - g.space.MinX) / g.cw)
	j := int((p.Y - g.space.MinY) / g.ch)
	return clampIdx(i, g.m), clampIdx(j, g.m)
}

// CellRect returns the rectangle of cell (i, j).
func (g *Grid) CellRect(i, j int) geom.Rect {
	return geom.Rect{
		MinX: g.space.MinX + float64(i)*g.cw,
		MinY: g.space.MinY + float64(j)*g.ch,
		MaxX: g.space.MinX + float64(i+1)*g.cw,
		MaxY: g.space.MinY + float64(j+1)*g.ch,
	}
}

// CellRectOf returns the rectangle of the cell containing p.
func (g *Grid) CellRectOf(p geom.Point) geom.Rect {
	i, j := g.CellOf(p)
	return g.CellRect(i, j)
}

// Insert indexes q under every cell its quarantine bbox overlaps.
func (g *Grid) Insert(q *query.Query) {
	bb := q.QuarantineBBox()
	g.extent[q.ID] = bb
	g.size++
	g.forEachCell(bb, func(c *bucket) {
		*c = insertSorted(*c, q)
	})
}

// Remove drops q from the index, reporting whether it was present.
func (g *Grid) Remove(q *query.Query) bool {
	bb, ok := g.extent[q.ID]
	if !ok {
		return false
	}
	delete(g.extent, q.ID)
	g.size--
	g.forEachCell(bb, func(c *bucket) {
		*c = removeSorted(*c, q.ID)
	})
	return true
}

// Update re-indexes q after its quarantine area changed.
func (g *Grid) Update(q *query.Query) {
	//lint:allow floatcmp cache-invalidation identity: any bit change must re-index
	if bb, ok := g.extent[q.ID]; ok && bb == q.QuarantineBBox() {
		return
	}
	g.Remove(q)
	g.Insert(q)
}

// At returns the bucket of the cell containing p. The returned slice is
// sorted by query ID and must not be modified.
func (g *Grid) At(p geom.Point) []*query.Query {
	i, j := g.CellOf(p)
	//lint:allow sliceescape documented read-only view; copying per probe would dominate the hot path
	return g.cells[j*g.m+i]
}

// NeighborhoodRect returns the rectangle covering the (2r+1)×(2r+1) block of
// cells centered on p's cell, clamped to the grid (Section 7.4 suggests
// enlarging the safe-region cell to the neighborhood when server load
// permits).
func (g *Grid) NeighborhoodRect(p geom.Point, r int) geom.Rect {
	i, j := g.CellOf(p)
	lo := g.CellRect(clampIdx(i-r, g.m), clampIdx(j-r, g.m))
	hi := g.CellRect(clampIdx(i+r, g.m), clampIdx(j+r, g.m))
	return lo.Union(hi)
}

// AtNeighborhood returns the union of the buckets of the (2r+1)×(2r+1) block
// of cells centered on p's cell, deduplicated and sorted by query ID.
func (g *Grid) AtNeighborhood(p geom.Point, r int) []*query.Query {
	if r <= 0 {
		return g.At(p)
	}
	ci, cj := g.CellOf(p)
	var out []*query.Query
	seen := make(map[query.ID]bool)
	for j := clampIdx(cj-r, g.m); j <= clampIdx(cj+r, g.m); j++ {
		for i := clampIdx(ci-r, g.m); i <= clampIdx(ci+r, g.m); i++ {
			for _, q := range g.cells[j*g.m+i] {
				if !seen[q.ID] {
					seen[q.ID] = true
					out = append(out, q)
				}
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Affected returns, in ID order without duplicates, every query in the
// buckets of pLst's and p's cells whose result may change for an object that
// moved from pLst to p (Section 3.3).
func (g *Grid) Affected(pLst, p geom.Point) []*query.Query {
	return g.AppendAffected(nil, pLst, p)
}

// AppendAffected appends Affected(pLst, p) to dst and returns the extended
// slice, so a caller that owns a scratch slice looks queries up without
// allocating.
func (g *Grid) AppendAffected(dst []*query.Query, pLst, p geom.Point) []*query.Query {
	a := g.At(p)
	b := g.At(pLst)
	for i, j := 0, 0; i < len(a) || j < len(b); {
		var q *query.Query
		switch {
		case j == len(b) || (i < len(a) && a[i].ID < b[j].ID):
			q = a[i]
			i++
		case i == len(a) || b[j].ID < a[i].ID:
			q = b[j]
			j++
		default: // the same query in both buckets
			q = a[i]
			i++
			j++
		}
		if q.Affected(pLst, p) {
			dst = append(dst, q)
		}
	}
	return dst
}

// AnyAffected reports whether Affected(pLst, p) is non-empty, without
// building the list.
func (g *Grid) AnyAffected(pLst, p geom.Point) bool {
	for _, q := range g.At(p) {
		if q.Affected(pLst, p) {
			return true
		}
	}
	for _, q := range g.At(pLst) {
		if q.Affected(pLst, p) {
			return true
		}
	}
	return false
}

func (g *Grid) forEachCell(bb geom.Rect, fn func(*bucket)) {
	bb = bb.Intersect(g.space)
	if !bb.IsValid() {
		return
	}
	i0, j0 := g.CellOf(geom.Point{X: bb.MinX, Y: bb.MinY})
	i1, j1 := g.CellOf(geom.Point{X: bb.MaxX, Y: bb.MaxY})
	for j := j0; j <= j1; j++ {
		for i := i0; i <= i1; i++ {
			fn(&g.cells[j*g.m+i])
		}
	}
}

func insertSorted(b bucket, q *query.Query) bucket {
	i := sort.Search(len(b), func(i int) bool { return b[i].ID >= q.ID })
	if i < len(b) && b[i].ID == q.ID {
		b[i] = q
		return b
	}
	b = append(b, nil)
	copy(b[i+1:], b[i:])
	b[i] = q
	return b
}

func removeSorted(b bucket, id query.ID) bucket {
	i := sort.Search(len(b), func(i int) bool { return b[i].ID >= id })
	if i < len(b) && b[i].ID == id {
		return append(b[:i], b[i+1:]...)
	}
	return b
}

func clampIdx(i, m int) int {
	if i < 0 {
		return 0
	}
	if i >= m {
		return m - 1
	}
	return i
}

// ExtentOf returns the quarantine bounding box a query was last indexed
// under; diagnostic helper.
func (g *Grid) ExtentOf(id query.ID) geom.Rect {
	return g.extent[id]
}

// CheckInvariants validates the internal consistency of the index: the size
// counter matches the extent table, every bucket is strictly sorted by query
// ID and references only indexed queries, and every query appears in exactly
// the buckets of the cells its recorded extent overlaps. Intended for tests
// and the srbdebug build.
func (g *Grid) CheckInvariants() error {
	if g.size != len(g.extent) {
		return fmt.Errorf("grid: size counter %d != %d recorded extents", g.size, len(g.extent))
	}
	counts := make(map[query.ID]int)
	for idx, b := range g.cells {
		for k, q := range b {
			if k > 0 && b[k-1].ID >= q.ID {
				return fmt.Errorf("grid: cell %d bucket not strictly sorted: ids %d, %d adjacent", idx, b[k-1].ID, q.ID)
			}
			if _, ok := g.extent[q.ID]; !ok {
				return fmt.Errorf("grid: cell %d holds query %d with no recorded extent", idx, q.ID)
			}
			counts[q.ID]++
		}
	}
	for id, bb := range g.extent {
		want := 0
		present := true
		g.forEachCell(bb, func(c *bucket) {
			want++
			b := *c
			i := sort.Search(len(b), func(i int) bool { return b[i].ID >= id })
			if i >= len(b) || b[i].ID != id {
				present = false
			}
		})
		if !present {
			return fmt.Errorf("grid: query %d missing from a cell its extent %v overlaps", id, bb)
		}
		if counts[id] != want {
			return fmt.Errorf("grid: query %d appears in %d buckets, extent %v overlaps %d cells", id, counts[id], bb, want)
		}
	}
	return nil
}
