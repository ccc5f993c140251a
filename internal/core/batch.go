package core

import (
	"srb/internal/geom"
	"srb/internal/query"
)

// This file is the Monitor half of the batch/parallel update pipeline (see
// internal/parallel for the orchestration half). The paper's server model is
// strictly sequential; the pipeline keeps that model observable while moving
// the CPU hot spot — safe-region geometry — off the serial path:
//
//  1. PlanUpdate runs read-only against the current state and precomputes
//     everything a conflict-free update would do, most importantly the
//     Section 5 safe-region geometry. Because it is read-only it may run for
//     many updates concurrently.
//  2. ApplyPlanned revalidates the plan's inputs against the live state and,
//     when nothing moved underneath it, replays the exact effect sequence of
//     Update. On any drift it refuses and the caller falls back to Update.
//
// The contract is strict equivalence: for any batch, planning + applying in
// ascending object-ID order yields bit-identical monitor state, returned
// safe regions, published results, and Stats counters as calling Update
// sequentially in the same order. The fast path is taken only when that is
// provable, so equivalence holds by construction; the differential harness
// in internal/parallel enforces it empirically.

// planDep records one relevant query's mutable inputs to the planned
// safe-region geometry. Range/circle geometry is immutable after
// registration; only a kNN quarantine radius changes in place.
type planDep struct {
	id      query.ID
	qradius float64
}

// PlannedUpdate is a precomputed location update produced by PlanUpdate. It
// is immutable and opaque to callers; it stays valid until the monitor
// mutates state it depends on, which ApplyPlanned detects.
type PlannedUpdate struct {
	id     uint64
	loc    geom.Point // the reported new location
	oldLoc geom.Point // st.lastLoc observed at plan time
	cell   geom.Rect  // neighborhood cap the geometry was computed against
	safe   geom.Rect  // precomputed safe region at loc
	deps   []planDep  // relevant-query snapshot at plan time
}

// Object returns the updating object's ID.
func (p *PlannedUpdate) Object() uint64 { return p.id }

// Loc returns the planned new location.
func (p *PlannedUpdate) Loc() geom.Point { return p.loc }

// PlanUpdate precomputes the effect of Update(id, p) for a conflict-free
// update: the object exists, the movement from its last reported location to
// p touches no query's quarantine area (grid conflict partition rule), and
// the object is in no query's result. For such an update the sequential path
// performs no reevaluation and no probe; its entire cost is the safe-region
// recomputation, which is precomputed here.
//
// PlanUpdate is read-only and safe for concurrent use by multiple goroutines
// provided no monitor mutation runs concurrently (the pipeline's plan phase
// runs strictly between operations).
//
// The second return is false when the update is not plannable and must take
// the sequential path.
//
//srb:hotpath
func (m *Monitor) PlanUpdate(id uint64, p geom.Point) (PlannedUpdate, bool) {
	st, ok := m.objects[id]
	if !ok {
		return PlannedUpdate{}, false // registration path (AddObject)
	}
	if len(m.resultOf[id]) != 0 {
		return PlannedUpdate{}, false // member updates reevaluate their queries
	}
	if m.grid.AnyAffected(st.lastLoc, p) {
		return PlannedUpdate{}, false // movement touches a quarantine area
	}
	relevant, cell := m.relevantQueriesAt(p)
	deps := make([]planDep, len(relevant))
	for i, q := range relevant {
		if q.InResult[id] {
			return PlannedUpdate{}, false // stale membership; serialize
		}
		deps[i] = planDep{id: q.ID, qradius: q.QRadius}
	}
	// The update will set prevLoc to the current last location; mirror that in
	// a scratch state so the steady-movement objective sees the same heading
	// the sequential recompute would.
	tmp := objectState{id: id, lastLoc: p, prevLoc: st.lastLoc}
	safe := clampSafe(m.safeRegionFromRelevant(&tmp, relevant, cell), p)
	return PlannedUpdate{id: id, loc: p, oldLoc: st.lastLoc, cell: cell, safe: safe, deps: deps}, true
}

// ApplyPlanned applies a planned update after revalidating every input the
// plan depends on: the object's last reported location, its non-membership,
// the emptiness of the affected-query set, and the relevant-query snapshot
// (identity, kNN quarantine radii, and the neighborhood cap). When all inputs
// are bit-identical to plan time, the precomputed geometry is exactly what
// recomputeSafeRegion would produce, and the sequential Update's effect
// sequence is replayed without recomputing it. Otherwise it returns false and
// the caller must fall back to Update.
//
//srb:hotpath
func (m *Monitor) ApplyPlanned(pl *PlannedUpdate) ([]SafeRegionUpdate, bool) {
	st, ok := m.objects[pl.id]
	//lint:allow floatcmp plan-cache identity: any bit drift must invalidate the plan
	if !ok || st.lastLoc != pl.oldLoc || len(m.resultOf[pl.id]) != 0 {
		return nil, false
	}
	if m.grid.AnyAffected(st.lastLoc, pl.loc) {
		return nil, false
	}
	relevant, cell := m.relevantQueriesAt(pl.loc)
	//lint:allow floatcmp plan-cache identity: any bit drift must invalidate the plan
	if cell != pl.cell || len(relevant) != len(pl.deps) {
		return nil, false
	}
	for i, q := range relevant {
		d := pl.deps[i]
		//lint:allow floatcmp plan-cache identity: any bit drift must invalidate the plan
		if q.ID != d.id || q.QRadius != d.qradius || q.InResult[pl.id] {
			return nil, false
		}
	}
	// Identical inputs: replay Update's exact effect sequence for the
	// conflict-free case, including the intermediate point-rectangle index
	// state so the R*-tree evolves through the same operations and stays
	// structurally identical to the sequential run.
	m.stats.SourceUpdates++
	st.prevLoc = st.lastLoc
	st.lastLoc = pl.loc
	st.lastTime = m.now
	st.safe = geom.RectAround(pl.loc)
	m.tree.Update(pl.id, st.safe)
	m.stats.SafeRegionsBuilt++
	st.safe = pl.safe
	m.tree.Update(pl.id, st.safe)
	m.noteFastPath()
	m.assertInvariants()
	return []SafeRegionUpdate{{Object: pl.id, Region: st.safe}}, true
}
