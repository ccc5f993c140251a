package rtree

import (
	"reflect"
	"testing"

	"srb/internal/geom"
)

// FuzzTreeOps drives the R*-tree through an arbitrary insert/update/delete/
// search stream decoded from the fuzz input, with CheckInvariants as the
// oracle after every step and a shadow map as the oracle for searches and
// final contents. Inserts into an empty tree are buffered until the next
// search or delete packs them, so the stream interleaves pending and placed
// states, including the delete and re-insert of a pending ID.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 10, 20, 30, 1, 1, 0, 0, 0, 2, 2, 200, 100, 5})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	// Three pending inserts, a re-insert of a pending ID, a search that
	// packs, deletes down to empty, then a pending insert and the delete
	// that packs it.
	f.Add([]byte{
		0, 1, 10, 20, 30, 0, 2, 90, 40, 9, 0, 3, 200, 100, 5, 2, 1, 50, 50, 50,
		3, 0, 0, 0, 255, 1, 1, 0, 0, 0, 1, 2, 0, 0, 0, 1, 3, 0, 0, 0,
		0, 2, 30, 30, 3, 1, 2, 0, 0, 0, 0, 2, 60, 60, 3, 3, 9, 0, 0, 255,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := NewWithCapacity(4)
		ref := make(map[uint64]geom.Rect)
		steps := 0
		for len(data) >= 5 && steps < 256 {
			op, id := data[0]%4, uint64(data[1]%32)
			x := float64(data[2]) / 255
			y := float64(data[3]) / 255
			w := float64(data[4]) / 255 * 0.2
			r := geom.R(x, y, x+w, y+w)
			switch op {
			case 0, 2: // Insert doubles as Update for a present id
				tr.Insert(id, r)
				ref[id] = r
			case 1:
				wantPresent := false
				if _, ok := ref[id]; ok {
					wantPresent = true
					delete(ref, id)
				}
				if got := tr.Delete(id); got != wantPresent {
					t.Fatalf("Delete(%d) = %v, shadow map says %v", id, got, wantPresent)
				}
			case 3: // a read: the window grows with data[4] to cover the space
				q := r.Expand(float64(data[4]) / 255)
				want := map[uint64]bool{}
				for id, rr := range ref {
					if rr.Intersects(q) {
						want[id] = true
					}
				}
				if got := searchSet(tr, q); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: Search(%v) = %v, shadow map says %v", steps, q, got, want)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after step %d (op %d id %d rect %v): %v", steps, op, id, r, err)
			}
			data = data[5:]
			steps++
		}
		if tr.Len() != len(ref) {
			t.Fatalf("tree has %d items, shadow map %d", tr.Len(), len(ref))
		}
		for id, want := range ref {
			got, ok := tr.Get(id)
			//lint:allow floatcmp identity: the tree must return the exact stored rect
			if !ok || got != want {
				t.Fatalf("Get(%d) = %v, %v; want %v, true", id, got, ok, want)
			}
		}
		// Search over the whole space must surface every stored item once.
		seen := make(map[uint64]int)
		tr.Search(geom.R(-1, -1, 2, 2), func(it Item) bool {
			seen[it.ID]++
			return true
		})
		if len(seen) != len(ref) {
			t.Fatalf("full-space search found %d ids, want %d", len(seen), len(ref))
		}
		for id, n := range seen {
			if n != 1 {
				t.Fatalf("full-space search returned id %d %d times", id, n)
			}
			if _, ok := ref[id]; !ok {
				t.Fatalf("full-space search returned unknown id %d", id)
			}
		}
	})
}
