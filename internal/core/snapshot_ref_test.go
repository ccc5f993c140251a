package core

import (
	"bytes"
	"encoding/gob"
	"testing"

	"srb/internal/geom"
	"srb/internal/query"
)

// statsV2Ref is Stats verbatim as snapshot version 2 first shipped it,
// before the kNN case counts joined it, and monitorSnapV2Ref is monitorSnap
// carrying that shape: the reference a snapshot written by such a build
// decodes as. gob matches struct fields by name, so the two shapes decode
// into each other and snapshotVersion stays 2.
type statsV2Ref struct {
	SourceUpdates    int64 // client-initiated location updates processed
	Probes           int64 // server-initiated probes issued
	Reevaluations    int64 // incremental query reevaluations
	FullReevals      int64 // reevaluations that fell back to from-scratch
	NewQueryEvals    int64 // from-scratch evaluations of new queries
	SafeRegionsBuilt int64 // full safe-region computations
	ResultChanges    int64 // result updates pushed to application servers
	ProbesAvoided    int64 // range-query ambiguities resolved without a probe
	VirtualProbes    int64 // reachability-circle safe-region shrinks (§6.1)
}

type monitorSnapV2Ref struct {
	Version int
	Now     float64
	Stats   statsV2Ref
	Objects []objectSnap
	Queries []querySnap
}

// TestSnapshotStatsShapeCompat proves both directions: a snapshot saved by
// this build decodes into the older Stats shape with every old field intact,
// and a snapshot encoded with the older shape loads on this build with every
// old field intact, the kNN cases zero and the same objects and queries.
func TestSnapshotStatsShapeCompat(t *testing.T) {
	w := newWorld(t, Options{GridM: 10, Space: geom.R(0, 0, 100, 100)})
	driveObsWorkload(t, w)
	st := w.mon.Stats()
	if st.KNNCases == [3]int64{} {
		t.Fatal("workload counted no kNN case; the compat check would prove nothing")
	}
	var cur bytes.Buffer
	if err := w.mon.SaveSnapshot(&cur); err != nil {
		t.Fatal(err)
	}

	var old monitorSnapV2Ref
	if err := gob.NewDecoder(bytes.NewReader(cur.Bytes())).Decode(&old); err != nil {
		t.Fatalf("this build's snapshot does not decode into the older shape: %v", err)
	}
	oldFields := statsV2Ref{st.SourceUpdates, st.Probes, st.Reevaluations, st.FullReevals, st.NewQueryEvals,
		st.SafeRegionsBuilt, st.ResultChanges, st.ProbesAvoided, st.VirtualProbes}
	if old.Version != snapshotVersion || old.Stats != oldFields || len(old.Objects) != w.mon.NumObjects() ||
		len(old.Queries) != w.mon.NumQueries() {
		t.Fatalf("older-shape decode = version %d stats %+v, %d objects, %d queries; want %d, %+v, %d, %d",
			old.Version, old.Stats, len(old.Objects), len(old.Queries),
			snapshotVersion, oldFields, w.mon.NumObjects(), w.mon.NumQueries())
	}

	var prev bytes.Buffer
	if err := gob.NewEncoder(&prev).Encode(old); err != nil {
		t.Fatal(err)
	}
	restored := New(Options{GridM: 10, Space: geom.R(0, 0, 100, 100)},
		ProberFunc(func(id uint64) geom.Point { return w.pos[id] }), nil)
	if err := restored.LoadSnapshot(&prev); err != nil {
		t.Fatalf("older-shape snapshot does not load: %v", err)
	}
	want := st
	want.KNNCases = [3]int64{}
	if restored.Stats() != want {
		t.Fatalf("older-shape snapshot restored %+v, want %+v", restored.Stats(), want)
	}
	if restored.NumObjects() != w.mon.NumObjects() || restored.NumQueries() != w.mon.NumQueries() {
		t.Fatalf("restored %d objects and %d queries, want %d and %d",
			restored.NumObjects(), restored.NumQueries(), w.mon.NumObjects(), w.mon.NumQueries())
	}
	for _, qid := range []query.ID{1, 2, 3} {
		a, _ := w.mon.Results(qid)
		b, _ := restored.Results(qid)
		if !equalSeq(a, b) {
			t.Fatalf("query %d: restored results %v, want %v", qid, b, a)
		}
	}
}
