package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"

	"srb/internal/geom"
	"srb/internal/obs"
	"srb/internal/query"
)

// sumLedger folds every ledger bucket — per-query entries, Unattributed,
// Retired — into one total, the left-hand side of the sum invariant.
func sumLedger(m *Monitor) QueryCost {
	var sum QueryCost
	for _, e := range m.QueryCosts() {
		sum.add(&e)
	}
	u := m.UnattributedCost()
	sum.add(&u)
	r := m.RetiredCost()
	sum.add(&r)
	return sum
}

// checkLedgerMirrorsCounters asserts the sum invariant against the global
// registry counters for every mirrored family.
func checkLedgerMirrorsCounters(t *testing.T, m *Monitor, r *obs.Registry) {
	t.Helper()
	sum := sumLedger(m)
	for _, tc := range []struct {
		name string
		got  int64
	}{
		{"srb_updates_total", sum.Updates},
		{"srb_probes_total", sum.Probes},
		{"srb_probes_avoided_total", sum.ProbesAvoided},
		{"srb_virtual_probes_total", sum.Shrinks},
		{"srb_reevaluations_total", sum.Reevals},
		{"srb_full_reevaluations_total", sum.FullReevals},
		{"srb_new_query_evals_total", sum.NewQueryEvals},
		{"srb_safe_regions_built_total", sum.SafeRegions},
		{"srb_result_changes_total", sum.ResultChanges},
	} {
		if want := r.Counter(tc.name, "").Value(); tc.got != want {
			t.Errorf("ledger sum %d != global counter %s %d", tc.got, tc.name, want)
		}
	}
	for i, got := range []int64{sum.KNNCase1, sum.KNNCase2, sum.KNNCase3} {
		name := string(rune('1' + i))
		if want := r.Counter("srb_knn_case_total", "", "case", name).Value(); got != want {
			t.Errorf("ledger kNN case %s sum %d != counter %d", name, got, want)
		}
	}
}

// driveLedgerWorkload is driveObsWorkload plus advancing logical time so the
// reachability circle (MaxSpeed worlds) produces virtual probes, exercising
// the shrink-attribution path too.
func driveLedgerWorkload(t *testing.T, w *world) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	now := 0.0
	tick := func() {
		now += 0.05
		w.mon.SetTime(now)
	}
	for i := 0; i < 60; i++ {
		tick()
		w.add(uint64(i), geom.Pt(rng.Float64()*100, rng.Float64()*100))
	}
	if _, _, err := w.mon.RegisterRange(1, geom.R(10, 10, 60, 60)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.mon.RegisterKNN(2, geom.Pt(50, 50), 5, true); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.mon.RegisterWithinDistance(3, geom.Pt(30, 70), 15); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.mon.RegisterCount(4, geom.R(0, 0, 40, 40)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		tick()
		id := uint64(rng.Intn(60))
		p := w.pos[id]
		w.move(id, geom.Pt(p.X+rng.Float64()*20-10, p.Y+rng.Float64()*20-10))
	}
	w.mon.RemoveObject(5)
	w.mon.Deregister(4)
}

// TestLedgerSumsToGlobalCounters is the sequential-path differential test:
// after a mixed workload with object and query churn, the per-query ledger
// (entries + Unattributed + Retired) sums exactly to every global obs counter.
func TestLedgerSumsToGlobalCounters(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"base", Options{GridM: 10, Space: geom.R(0, 0, 100, 100)}},
		{"reachability", Options{GridM: 10, Space: geom.R(0, 0, 100, 100), MaxSpeed: 30}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			sink := obs.NewSink(reg, obs.NewFlightRecorder(0, ""))
			w := newWorld(t, tc.opt)
			w.mon.SetObs(sink)
			driveLedgerWorkload(t, w)

			checkLedgerMirrorsCounters(t, w.mon, reg)

			// The workload must actually attribute work: at least the range and
			// kNN queries saw reevaluations, and the retired COUNT query's work
			// survived deregistration in the Retired aggregate.
			costs := w.mon.QueryCosts()
			if len(costs) != 3 {
				t.Fatalf("got %d ledger entries, want 3 live queries", len(costs))
			}
			var attributed int64
			for _, c := range costs {
				attributed += c.Reevals
				if c.Kind == "" {
					t.Errorf("query %d: ledger entry has no kind", c.Query)
				}
			}
			if attributed == 0 {
				t.Fatal("no reevaluations attributed to any query")
			}
			if w.mon.RetiredQueries() != 1 {
				t.Fatalf("RetiredQueries = %d, want 1 (the deregistered COUNT query)", w.mon.RetiredQueries())
			}
			if rc := w.mon.RetiredCost(); rc.NewQueryEvals != 1 {
				t.Errorf("retired aggregate NewQueryEvals = %d, want 1", rc.NewQueryEvals)
			}
			if u := w.mon.UnattributedCost(); u.Updates == 0 || u.SafeRegions == 0 || u.Grants == 0 {
				t.Errorf("unattributed bucket missing the updates' own work: %+v", u)
			}
			if tc.opt.MaxSpeed > 0 && sumLedger(w.mon).Shrinks == 0 {
				t.Error("reachability world produced no virtual probes to attribute")
			}

			// Wire-byte accounting is internally consistent: the registry
			// counter carries what the ledger accumulated.
			if got, want := reg.Counter("srb_query_wire_bytes_total", "").Value(), sumLedger(w.mon).WireBytes; got != want {
				t.Errorf("srb_query_wire_bytes_total = %d, ledger sum %d", got, want)
			}
			if got := reg.Counter("srb_query_retired_total", "").Value(); got != 1 {
				t.Errorf("srb_query_retired_total = %d, want 1", got)
			}
		})
	}
}

// TestLedgerNilSinkNeutral pins that ledger views are empty and harmless
// without a sink, and that the instrumented run's Stats stay bit-identical to
// the plain run (extending the PR 4 neutrality contract to the ledger).
func TestLedgerNilSinkNeutral(t *testing.T) {
	plain := newWorld(t, Options{GridM: 10, Space: geom.R(0, 0, 100, 100), MaxSpeed: 30})
	driveLedgerWorkload(t, plain)

	inst := newWorld(t, Options{GridM: 10, Space: geom.R(0, 0, 100, 100), MaxSpeed: 30})
	inst.mon.SetObs(obs.NewSink(obs.NewRegistry(), obs.NewFlightRecorder(256, "")))
	driveLedgerWorkload(t, inst)

	if plain.mon.Stats() != inst.mon.Stats() {
		t.Fatalf("ledger instrumentation changed behavior:\nplain = %+v\ninst  = %+v",
			plain.mon.Stats(), inst.mon.Stats())
	}
	if plain.mon.QueryCosts() != nil {
		t.Error("QueryCosts must be nil without a sink")
	}
	if plain.mon.HotQueries(3) != nil {
		t.Error("HotQueries must be nil without a sink")
	}
	if (plain.mon.UnattributedCost() != QueryCost{}) || (plain.mon.RetiredCost() != QueryCost{}) {
		t.Error("cost buckets must read zero without a sink")
	}
}

// TestLedgerHotQueries pins the top-K view: ordering by Score descending,
// deterministic tie-break by query ID, truncation to k.
func TestLedgerHotQueries(t *testing.T) {
	reg := obs.NewRegistry()
	w := newWorld(t, Options{GridM: 10, Space: geom.R(0, 0, 100, 100)})
	w.mon.SetObs(obs.NewSink(reg, nil))
	driveLedgerWorkload(t, w)

	hot := w.mon.HotQueries(2)
	if len(hot) != 2 {
		t.Fatalf("HotQueries(2) returned %d entries", len(hot))
	}
	if hot[0].Score() < hot[1].Score() {
		t.Fatalf("hot queries not sorted: %d then %d", hot[0].Score(), hot[1].Score())
	}
	all := w.mon.HotQueries(100)
	if len(all) != 3 {
		t.Fatalf("HotQueries(100) returned %d, want all 3", len(all))
	}
	for i := 1; i < len(all); i++ {
		si, sj := all[i-1].Score(), all[i].Score()
		if si < sj || (si == sj && all[i-1].Query >= all[i].Query) {
			t.Fatalf("ordering violated at %d: (%d,%d) then (%d,%d)",
				i, all[i-1].Query, si, all[i].Query, sj)
		}
	}
}

// TestLedgerSlowOpLog drives with a zero-distance threshold so every
// instrumented op is "slow", then checks the NDJSON log lines and that each
// is the ring's own line for a slow_op event.
func TestLedgerSlowOpLog(t *testing.T) {
	reg := obs.NewRegistry()
	w := newWorld(t, Options{GridM: 10, Space: geom.R(0, 0, 100, 100)})
	fr := obs.NewFlightRecorder(1<<14, "")
	w.mon.SetObs(obs.NewSink(reg, fr))
	var buf bytes.Buffer
	w.mon.SetSlowOpLog(time.Nanosecond, &buf)
	w.mon.SetOpTrace(7777)
	driveLedgerWorkload(t, w)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 66 {
		t.Fatalf("slow-op log has %d lines; every op should be over a 1ns threshold", len(lines))
	}
	ops := map[string]bool{}
	var sawChain, sawTrace bool
	for _, line := range lines {
		var rec struct {
			TS     int64      `json:"ts"`
			Kind   string     `json:"kind"`
			Op     string     `json:"note"`
			Trace  uint64     `json:"trace"`
			DurNS  int64      `json:"dur_ns"`
			Chain  []query.ID `json:"chain"`
			Probes *int64     `json:"probes"`
			SafeRg *int64     `json:"safe_regions"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("slow-op line does not parse: %v (%q)", err, line)
		}
		if rec.TS == 0 || rec.DurNS <= 0 || rec.Op == "" || rec.Kind != obs.FlightSlowOp || rec.Probes == nil || rec.SafeRg == nil {
			t.Fatalf("slow-op record missing core fields: %q", line)
		}
		ops[rec.Op] = true
		if len(rec.Chain) > 0 {
			sawChain = true
		}
		if rec.Trace == 7777 {
			sawTrace = true
		}
	}
	for _, op := range []string{"update", "add", "remove", "register"} {
		if !ops[op] {
			t.Errorf("slow-op log never saw op %q", op)
		}
	}
	if !sawChain {
		t.Error("no slow-op record carried a cause chain of reevaluated queries")
	}
	if !sawTrace {
		t.Error("no slow-op record carried the causal trace ID")
	}
	if got := reg.Counter("srb_query_slow_ops_total", "").Value(); got != int64(len(lines)) {
		t.Errorf("srb_query_slow_ops_total = %d, want %d (one per logged record)", got, len(lines))
	}
	// The log holds exactly the ring's slow_op lines, in order.
	var ring []string
	for _, ev := range fr.Events() {
		if ev.Kind == obs.FlightSlowOp {
			if ev.Trace != 7777 {
				t.Fatalf("ring slow-op event lost the trace ID: %+v", ev)
			}
			ring = append(ring, strings.TrimSuffix(string(ev.AppendNDJSON(nil)), "\n"))
		}
	}
	if strings.Join(ring, "\n") != strings.Join(lines, "\n") {
		t.Errorf("slow-op log is not the ring's slow_op lines: ring has %d, log %d", len(ring), len(lines))
	}
}

// TestLedgerSurvivesRecovery replays a mid-run snapshot + journal suffix into
// a fresh instrumented monitor and checks that (a) every recovered query has
// a ledger entry, (b) the sum invariant holds over the replayed suffix, and
// (c) it keeps holding for traffic after recovery.
func TestLedgerSurvivesRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	r := newJournaledRun(t, 2026)
	for i := 0; i < 40; i++ {
		r.add(t, uint64(i), geom.Pt(rng.Float64(), rng.Float64()))
	}
	r.do(t, JournalEntry{Op: JournalRegister, QID: 1, Kind: "range", MinX: 0.2, MinY: 0.2, MaxX: 0.6, MaxY: 0.6}, func() {
		if _, _, err := r.mon.RegisterRange(1, geom.R(0.2, 0.2, 0.6, 0.6)); err != nil {
			t.Fatal(err)
		}
	})
	r.do(t, JournalEntry{Op: JournalRegister, QID: 2, Kind: "knn", X: 0.7, Y: 0.7, K: 5, Ordered: true}, func() {
		if _, _, err := r.mon.RegisterKNN(2, geom.Pt(0.7, 0.7), 5, true); err != nil {
			t.Fatal(err)
		}
	})
	for step := 0; step < 120; step++ {
		id := uint64(rng.Intn(40))
		p := r.pos[id]
		r.update(t, id, geom.Pt(clamp01(p.X+(rng.Float64()-0.5)*0.2), clamp01(p.Y+(rng.Float64()-0.5)*0.2)))
		if step == 60 {
			if err := r.mon.SaveSnapshot(&r.midSnap); err != nil {
				t.Fatal(err)
			}
			r.midSeq = r.journal.LastSeq()
		}
	}

	reg := obs.NewRegistry()
	pos := map[uint64]geom.Point{}
	replaying := true
	recovered := New(Options{GridM: 8}, ProberFunc(func(id uint64) geom.Point {
		if replaying {
			t.Fatalf("recovery probed object %d live", id)
		}
		return pos[id]
	}), nil)
	recovered.SetObs(obs.NewSink(reg, nil))
	if err := recovered.LoadSnapshot(bytes.NewReader(r.midSnap.Bytes())); err != nil {
		t.Fatal(err)
	}
	// After recovery every registered query must already be tracked, zeroed.
	costs := recovered.QueryCosts()
	if len(costs) != 2 {
		t.Fatalf("recovered ledger has %d entries, want 2", len(costs))
	}
	for _, c := range costs {
		if c.Reevals != 0 || c.Probes != 0 {
			t.Fatalf("recovered ledger entry not re-based: %+v", c)
		}
	}
	if _, err := ReplayJournal(bytes.NewReader(r.logBuf.Bytes()), recovered, r.midSeq); err != nil {
		t.Fatal(err)
	}
	if recovered.Stats() != r.mon.Stats() {
		t.Fatalf("recovery diverged:\nrecovered %+v\noriginal  %+v", recovered.Stats(), r.mon.Stats())
	}
	checkLedgerMirrorsCounters(t, recovered, reg)

	// Post-recovery traffic keeps the invariant and lands on live entries.
	replaying = false
	for id, p := range r.pos {
		pos[id] = p
	}
	for step := 0; step < 60; step++ {
		id := uint64(rng.Intn(40))
		p := pos[id]
		np := geom.Pt(clamp01(p.X+(rng.Float64()-0.5)*0.3), clamp01(p.Y+(rng.Float64()-0.5)*0.3))
		pos[id] = np
		recovered.Update(id, np)
	}
	checkLedgerMirrorsCounters(t, recovered, reg)
	var reevals int64
	for _, c := range recovered.QueryCosts() {
		reevals += c.Reevals
	}
	if reevals == 0 {
		t.Fatal("post-recovery traffic attributed no reevaluations")
	}
}
