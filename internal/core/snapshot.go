package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sort"

	"srb/internal/geom"
	"srb/internal/query"
)

// snapshotVersion guards against decoding snapshots from incompatible
// builds. Version 2 added the Stats counters, which crash recovery must
// restore for the recovered monitor to be bit-identical to the original.
const snapshotVersion = 2

// objectSnap and querySnap are the wire representations of the monitor's
// durable state. Exported fields only, for encoding/gob.
type objectSnap struct {
	ID       uint64
	LastLoc  geom.Point
	PrevLoc  geom.Point
	LastTime float64
	Safe     geom.Rect
}

type querySnap struct {
	ID             query.ID
	Kind           query.Kind
	Aggregate      bool
	Rect           geom.Rect
	Point          geom.Point
	K              int
	OrderSensitive bool
	Results        []uint64
	QRadius        float64
}

type monitorSnap struct {
	Version int
	Now     float64
	Stats   Stats
	Objects []objectSnap
	Queries []querySnap
}

// SaveSnapshot serializes the monitor's durable state — objects with their
// safe regions and the registered queries with their results and quarantine
// areas — so a restarted server can resume exactly where it stopped without
// forcing every client to re-register. Options are not part of the snapshot;
// the restoring monitor must be constructed with the same Options.
func (m *Monitor) SaveSnapshot(w io.Writer) error {
	snap := monitorSnap{Version: snapshotVersion, Now: m.now, Stats: m.stats}
	for _, id := range m.sortedObjectIDs() {
		st := m.objects[id]
		snap.Objects = append(snap.Objects, objectSnap{
			ID: id, LastLoc: st.lastLoc, PrevLoc: st.prevLoc, LastTime: st.lastTime, Safe: st.safe,
		})
	}
	for _, qid := range m.sortedQueryIDs() {
		q := m.queries[qid]
		snap.Queries = append(snap.Queries, querySnap{
			ID: q.ID, Kind: q.Kind, Aggregate: q.Aggregate, Rect: q.Rect,
			Point: q.Point, K: q.K, OrderSensitive: q.OrderSensitive,
			Results: append([]uint64(nil), q.Results...), QRadius: q.QRadius,
		})
	}
	return gob.NewEncoder(w).Encode(snap)
}

// LoadSnapshot restores state saved by SaveSnapshot into an empty monitor.
func (m *Monitor) LoadSnapshot(r io.Reader) error {
	if len(m.objects) != 0 || len(m.queries) != 0 {
		return fmt.Errorf("core: LoadSnapshot requires an empty monitor")
	}
	var snap monitorSnap
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("core: decode snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("core: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	m.now = snap.Now
	m.stats = snap.Stats
	for _, o := range snap.Objects {
		if _, dup := m.objects[o.ID]; dup {
			return fmt.Errorf("core: snapshot lists object %d twice", o.ID)
		}
		if !finite(o.LastLoc.X) || !finite(o.LastLoc.Y) {
			return fmt.Errorf("core: snapshot object %d has non-finite location %v", o.ID, o.LastLoc)
		}
		st := &objectState{
			id: o.ID, lastLoc: o.LastLoc, prevLoc: o.PrevLoc, lastTime: o.LastTime,
			safe: clampSafe(o.Safe, o.LastLoc),
		}
		m.objects[o.ID] = st
		m.tree.Insert(o.ID, st.safe)
	}
	for _, qs := range snap.Queries {
		if _, dup := m.queries[qs.ID]; dup {
			return fmt.Errorf("core: snapshot lists query %d twice", qs.ID)
		}
		var q *query.Query
		switch {
		case qs.Kind == query.KindRange && qs.Aggregate:
			q = query.NewCountRange(qs.ID, qs.Rect)
		case qs.Kind == query.KindRange:
			q = query.NewRange(qs.ID, qs.Rect)
		case qs.Kind == query.KindCircle:
			q = query.NewWithinDistance(qs.ID, qs.Point, qs.QRadius)
		case qs.Kind == query.KindKNN:
			q = query.NewKNN(qs.ID, qs.Point, qs.K, qs.OrderSensitive)
		default:
			return fmt.Errorf("core: snapshot has unknown query kind %v", qs.Kind)
		}
		q.QRadius = qs.QRadius
		for _, id := range qs.Results {
			if _, ok := m.objects[id]; !ok {
				return fmt.Errorf("core: query %d references unknown object %d", qs.ID, id)
			}
		}
		m.queries[q.ID] = q
		m.setResults(q, qs.Results)
		m.grid.Insert(q)
	}
	// The restored Stats predate any attached ledger, so per-query accounting
	// restarts at the recovery point; the counters continue from the Stats.
	if m.mobs != nil {
		m.mobs.lg = newLedger(m)
		m.mobs.publish(m)
	}
	m.assertInvariants()
	return nil
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func (m *Monitor) sortedObjectIDs() []uint64 {
	ids := make([]uint64, 0, len(m.objects))
	for id := range m.objects {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
