package load

import (
	"strings"
	"testing"
	"time"
)

func baseConfig() Config {
	cfg, err := (Config{Addr: "127.0.0.1:1", Seed: 7, Sessions: 8}).withDefaults()
	if err != nil {
		panic(err)
	}
	return cfg
}

// TestWorkloadDeterminism pins the reproducibility contract: the same seed
// produces byte-identical workloads, and different seeds do not.
func TestWorkloadDeterminism(t *testing.T) {
	a := workloadQueries(baseConfig())
	b := workloadQueries(baseConfig())
	if len(a) == 0 {
		t.Fatal("default config produced an empty query mix")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d differs across identical configs:\n%+v\n%+v", i, a[i], b[i])
		}
	}

	other := baseConfig()
	other.Seed = 8
	c := workloadQueries(other)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced an identical query mix")
	}

	// Query IDs must be unique and clear of the prober's namespace.
	seen := map[uint64]bool{}
	for _, q := range a {
		id := uint64(q.id)
		if seen[id] {
			t.Fatalf("duplicate query ID %d", id)
		}
		seen[id] = true
		if id >= probeIDBase {
			t.Fatalf("workload query ID %d collides with prober namespace (base %d)", id, probeIDBase)
		}
	}
}

// TestStartPositionDeterminism checks per-session start positions reproduce
// for the same (seed, id) and spread across IDs.
func TestStartPositionDeterminism(t *testing.T) {
	cfg := baseConfig()
	p1 := startPosition(cfg, 3)
	p2 := startPosition(cfg, 3)
	if p1 != p2 {
		t.Fatalf("same (seed,id) produced %v then %v", p1, p2)
	}
	if p1 == startPosition(cfg, 4) {
		t.Fatal("adjacent session IDs produced the same start position")
	}
	if !cfg.Space.Contains(p1) {
		t.Fatalf("start position %v outside space %v", p1, cfg.Space)
	}
	other := cfg
	other.Seed = 99
	if p1 == startPosition(other, 3) {
		t.Fatal("different seeds produced the same start position")
	}
}

// TestSessionSeedDisjoint spot-checks the splitmix64 derivation: distinct IDs
// give distinct streams even with adversarially close inputs.
func TestSessionSeedDisjoint(t *testing.T) {
	seen := map[int64]uint64{}
	for id := uint64(0); id < 10_000; id++ {
		s := sessionSeed(1, id)
		if prev, dup := seen[s]; dup {
			t.Fatalf("sessionSeed(1, %d) == sessionSeed(1, %d) == %d", id, prev, s)
		}
		seen[s] = id
	}
	if sessionSeed(1, 5) == sessionSeed(2, 5) {
		t.Fatal("different base seeds collided for the same ID")
	}
}

// TestConfigDefaultsValidation covers withDefaults rejections.
func TestConfigDefaultsValidation(t *testing.T) {
	if _, err := (Config{Addr: "x", Sessions: 4, StageMultipliers: []int{1, 2, 2}}).withDefaults(); err == nil {
		t.Error("non-increasing stage multipliers accepted")
	}
	if _, err := (Config{Sessions: 4}).withDefaults(); err == nil {
		t.Error("missing Addr accepted")
	}
	if _, err := (Config{Addr: "x", Sessions: 4, StageMultipliers: []int{0, 1}}).withDefaults(); err == nil {
		t.Error("zero stage multiplier accepted")
	}
	if _, err := (Config{Addr: "x", Sessions: 0}).withDefaults(); err == nil {
		t.Error("zero sessions accepted")
	}
	cfg, err := (Config{Addr: "x", Sessions: 4}).withDefaults()
	if err != nil {
		t.Fatalf("minimal config rejected: %v", err)
	}
	if len(cfg.StageMultipliers) == 0 || cfg.StageDuration <= 0 || cfg.SLOP99 <= 0 {
		t.Fatalf("defaults not filled: %+v", cfg)
	}
}

// validReport builds a report that passes Validate, for mutation tests.
func validReport() *Report {
	recovered := make(map[string]float64)
	for _, name := range ServerFamilies {
		recovered[name] = 1
	}
	// The work counters continue from the snapshot, past the first life's.
	recovered["srb_updates_total"], recovered["srb_reevaluations_total"] = 600, 350
	mk := func(n int64) LatencySummary {
		return LatencySummary{Count: n, P50: 0.001, P99: 0.004, P999: 0.009, Mean: 0.002}
	}
	return &Report{
		Schema: ReportSchema,
		Cores:  4,
		Stages: []StageReport{
			{Sessions: 8, DurationSeconds: 5, OfferedUpdates: 100, AckedUpdates: 90,
				UpdateAck: mk(90), ProbeRTT: mk(20),
				WorstAckSeconds: 0.011, WorstAckTrace: 0xdeadbeef, MetSLO: true},
			{Sessions: 16, DurationSeconds: 5, OfferedUpdates: 200, AckedUpdates: 180,
				UpdateAck: mk(180), ProbeRTT: mk(20),
				WorstAckSeconds: 0.031, WorstAckTrace: 0xfeedface, MetSLO: false},
		},
		Capacity: CapacityReport{SLOP99Seconds: 0.05, MaxSessionsAtSLO: 8, SessionsPerCore: 2, Saturated: true},
		Flight: FlightCheck{Trace: 0xfeedface, Stage: 1, Events: 3,
			Kinds: []string{"update", "probe", "grant"}, Complete: true},
		Recovery: RecoveryReport{Performed: true, KillAtSeconds: 10, RecoveredAtSeconds: 10.4,
			SLORestoredAtSeconds: 10.9, RTOSeconds: 0.4, SLORestoreSeconds: 0.9},
		Server: &ServerEvidence{Families: map[string]float64{"srb_updates_total": 500,
			"srb_reevaluations_total": 300, "srb_server_journal_entries_total": 800},
			Hot: []HotQuery{{Query: 1_000_003, Reevals: 40, WireBytes: 9000}}, StatsBatch: true},
		Recovered: &ServerEvidence{Families: recovered, TraceEvents: 10_000, RetiredQueries: 33,
			StatsBatch: true, FlightEvents: 8192, ReconnectEvents: 32},
	}
}

// TestReportValidateNegatives mutates a valid report one field at a time and
// asserts Validate rejects each corruption with a message naming the problem.
func TestReportValidateNegatives(t *testing.T) {
	if err := validReport().Validate(); err != nil {
		t.Fatalf("baseline report invalid: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*Report)
		wantSub string
	}{
		{"wrong schema", func(r *Report) { r.Schema = "srb-load/v0" }, "schema"},
		{"zero cores", func(r *Report) { r.Cores = 0 }, "cores"},
		{"no stages", func(r *Report) { r.Stages = nil }, "no ramp stages"},
		{"non-monotone ramp", func(r *Report) { r.Stages[1].Sessions = 8 }, "not monotone"},
		{"zero-session stage", func(r *Report) { r.Stages[0].Sessions = 0 }, "sessions"},
		{"zero duration", func(r *Report) { r.Stages[0].DurationSeconds = 0 }, "duration"},
		{"zero quantiles with samples", func(r *Report) { r.Stages[0].UpdateAck.P50 = 0 }, "zero quantiles"},
		{"non-monotone quantiles", func(r *Report) { r.Stages[0].ProbeRTT.P99 = 1 }, "not monotone"},
		{"no acks in stage 1", func(r *Report) { r.Stages[0].UpdateAck = LatencySummary{} }, "no update acks"},
		{"no probes in stage 1", func(r *Report) { r.Stages[0].ProbeRTT = LatencySummary{} }, "no probe"},
		{"acks but no worst-ack latency", func(r *Report) { r.Stages[0].WorstAckSeconds = 0 }, "worst-ack"},
		{"worst ack below mean", func(r *Report) { r.Stages[1].WorstAckSeconds = 0.001 }, "below mean"},
		{"untraced worst ack", func(r *Report) { r.Stages[0].WorstAckTrace = 0 }, "causal trace"},
		{"no SLO", func(r *Report) { r.Capacity.SLOP99Seconds = 0 }, "SLO"},
		{"no capacity", func(r *Report) { r.Capacity.MaxSessionsAtSLO = 0 }, "no stage met"},
		{"no per-core figure", func(r *Report) { r.Capacity.SessionsPerCore = 0 }, "per-core"},
		{"flight check without a trace", func(r *Report) { r.Flight.Trace = 0 }, "no worst-ack trace"},
		{"unresolved flight trace", func(r *Report) { r.Flight.Events = 0 }, "no flight-recorder events"},
		{"incomplete causal chain", func(r *Report) { r.Flight.Complete = false }, "incomplete"},
		{"zero RTO", func(r *Report) { r.Recovery.RTOSeconds = 0 }, "rto_seconds"},
		{"recovery before kill", func(r *Report) { r.Recovery.RecoveredAtSeconds = 9 }, "sequencing"},
		{"restore before kill", func(r *Report) { r.Recovery.SLORestoredAtSeconds = 9 }, "sequencing"},
		{"restore before recovery", func(r *Report) { r.Recovery.SLORestoredAtSeconds = 10.2 }, "before the server recovered"},
		{"ramp updates stuck", func(r *Report) { delete(r.Server.Families, "srb_updates_total") }, "srb_updates_total"},
		{"ramp reevaluations stuck", func(r *Report) { r.Server.Families["srb_reevaluations_total"] = 0 }, "srb_reevaluations_total"},
		{"journal idle", func(r *Report) { r.Server.Families["srb_server_journal_entries_total"] = 0 }, "srb_server_journal_entries_total"},
		{"empty hot list", func(r *Report) { r.Server.Hot = nil }, "hot list empty"},
		{"hot entry without ID", func(r *Report) { r.Server.Hot[0].Query = 0 }, "no query ID"},
		{"hot entry booked no work", func(r *Report) { r.Server.Hot[0].Reevals, r.Server.Hot[0].WireBytes = 0, 0 }, "booked no work"},
		{"recovered updates stuck", func(r *Report) { r.Recovered.Families["srb_updates_total"] = 0 }, "recovered server srb_updates_total"},
		{"recovered reevaluations stuck", func(r *Report) { r.Recovered.Families["srb_reevaluations_total"] = 0 }, "recovered server srb_reevaluations_total"},
		{"recovered updates restarted", func(r *Report) {
			r.Server.Families["srb_updates_total"], r.Recovered.Families["srb_updates_total"] = 1000, 1
		}, "want >= the first life's 1000"},
		{"no journal replay", func(r *Report) { r.Recovered.Families["srb_server_replay_entries"] = 0 }, "srb_server_replay_entries"},
		{"no reconnects", func(r *Report) { r.Recovered.Families["srb_server_reconnects_total"] = 0 }, "srb_server_reconnects_total"},
		{"no region re-push", func(r *Report) { r.Recovered.Families["srb_server_region_repush_total"] = 0 }, "srb_server_region_repush_total"},
		{"family missing", func(r *Report) { delete(r.Recovered.Families, "srb_batch_fastpath_fraction") }, "srb_batch_fastpath_fraction"},
		{"empty trace", func(r *Report) { r.Recovered.TraceEvents = 0 }, "/trace"},
		{"nothing retired", func(r *Report) { r.Recovered.RetiredQueries = 0 }, "retired no ledger entries"},
		{"no batch section", func(r *Report) { r.Recovered.StatsBatch = false }, "batch section"},
		{"batch family lost on restart", func(r *Report) { delete(r.Recovered.Families, "srb_batch_batches_total") }, "srb_batch_batches_total"},
		{"sequential server misses a family", func(r *Report) {
			r.Server.StatsBatch, r.Recovered.StatsBatch = false, false
			delete(r.Recovered.Families, "srb_server_clients")
		}, "srb_server_clients"},
		{"empty flight recorder", func(r *Report) { r.Recovered.FlightEvents = 0 }, "is empty"},
		{"recovered server not scraped", func(r *Report) { r.Recovered = nil }, "not scraped"},
		{"no traced reconnects", func(r *Report) { r.Recovered.ReconnectEvents = 0 }, "traced reconnect"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := validReport()
			tc.mutate(r)
			err := r.Validate()
			if err == nil {
				t.Fatalf("corruption %q passed Validate", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}

	// A drill-free report must not be judged on its zeroed recovery block, nor
	// on the recovered-life admin evidence it cannot have.
	r := validReport()
	r.Recovery, r.Recovered = RecoveryReport{}, nil
	if err := r.Validate(); err != nil {
		t.Fatalf("report without a drill rejected: %v", err)
	}

	// A sequential server (-workers 0) serves no batch families and no /stats
	// batch section on either life; its drill is judged without them.
	r = validReport()
	r.Server.StatsBatch, r.Recovered.StatsBatch = false, false
	for _, name := range ServerFamilies {
		if strings.HasPrefix(name, "srb_batch_") {
			delete(r.Recovered.Families, name)
		}
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("sequential-server report rejected: %v", err)
	}

	// Nor is a report without an admin endpoint judged on its evidence.
	r = validReport()
	r.Server, r.Recovered, r.Flight = nil, nil, FlightCheck{}
	if err := r.Validate(); err != nil {
		t.Fatalf("report without an admin endpoint rejected: %v", err)
	}
}

// TestAckWatch covers the SLO-restore watch arming semantics: acks before
// arming or above the SLO are ignored; the first compliant ack fires once.
func TestAckWatch(t *testing.T) {
	var w ackWatch
	w.note(0.001, time.Now()) // unarmed: must not panic or fire
	w.arm(0.05)
	w.note(0.2, time.Now()) // above SLO
	select {
	case <-w.ch:
		t.Fatal("watch fired on an over-SLO ack")
	default:
	}
	fire := time.Now()
	w.note(0.01, fire)
	select {
	case got := <-w.ch:
		if !got.Equal(fire) {
			t.Fatalf("watch delivered %v, want %v", got, fire)
		}
	default:
		t.Fatal("watch did not fire on a compliant ack")
	}
	w.note(0.01, time.Now()) // disarmed after firing: must not block or refire
	select {
	case <-w.ch:
		t.Fatal("watch fired twice off one arming")
	default:
	}
}
