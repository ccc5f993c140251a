package load

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"srb/internal/obs"
)

// ReportSchema identifies the capacity-report JSON layout; bump it when a
// field changes meaning so downstream diffing tools can refuse mixed files.
// v2 added the per-stage worst-ack latency and its causal trace ID
// (worst_ack_seconds / worst_ack_trace); v3 turned the server block into
// gating ServerEvidence and added the recovered block.
const ReportSchema = "srb-load/v3"

// LatencySummary is the quantile digest of one latency histogram, in seconds.
type LatencySummary struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Mean  float64 `json:"mean"`
}

// summarize digests a histogram into its quantile summary.
func summarize(h *obs.Histogram) LatencySummary {
	s := LatencySummary{
		Count: h.Count(),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
	}
	if s.Count > 0 {
		s.Mean = h.Sum() / float64(s.Count)
	}
	return s
}

// StageReport is the outcome of one ramp stage.
type StageReport struct {
	// Sessions is the concurrent mobile-session count held through the stage.
	Sessions int `json:"sessions"`
	// DurationSeconds is the measured stage length.
	DurationSeconds float64 `json:"duration_seconds"`
	// OfferedUpdates counts location-update frames handed to the transport.
	OfferedUpdates int64 `json:"offered_updates"`
	// OfferedRate is OfferedUpdates per second of stage time.
	OfferedRate float64 `json:"offered_rate"`
	// AckedUpdates counts safe-region grants matched to a pending update.
	AckedUpdates int64 `json:"acked_updates"`
	// UpdateAck digests the update→region-grant round-trip latency.
	UpdateAck LatencySummary `json:"update_ack_seconds"`
	// ProbeRTT digests the synchronous query-registration probe round trips.
	ProbeRTT LatencySummary `json:"probe_rtt_seconds"`
	// WorstAckSeconds is the single worst update-ack latency observed in the
	// stage — the exact maximum, not a histogram-bucket estimate like P999.
	WorstAckSeconds float64 `json:"worst_ack_seconds"`
	// WorstAckTrace is the causal trace ID minted for the update whose ack
	// was WorstAckSeconds. Feeding it to the server's flight recorder dump
	// (/debug/flightrec) or Chrome trace reconstructs the tail event's full
	// causal chain: update receipt, probes, safe-region grant.
	WorstAckTrace uint64 `json:"worst_ack_trace"`
	// Errors counts frame-write and probe round-trip failures in the stage.
	Errors int64 `json:"errors"`
	// Reconnects counts session resumes that completed during the stage.
	Reconnects int64 `json:"reconnects"`
	// MetSLO reports whether the stage held the declared latency objective:
	// non-empty ack sample with p99 update-ack and p99 probe RTT ≤ the SLO.
	MetSLO bool `json:"met_slo"`
}

// CapacityReport is the headline number: what the server sustained at the SLO.
type CapacityReport struct {
	// SLOP99Seconds is the declared objective both latency families' p99 must
	// stay under for a stage to count as sustained.
	SLOP99Seconds float64 `json:"slo_p99_seconds"`
	// MaxSessionsAtSLO is the largest stage session count that met the SLO.
	MaxSessionsAtSLO int `json:"max_sessions_at_slo"`
	// SessionsPerCore normalizes MaxSessionsAtSLO by the machine's CPU count
	// (generator and server share the box in the default single-node drill).
	SessionsPerCore float64 `json:"sessions_per_core"`
	// Saturated reports whether the ramp actually found the limit: a later
	// stage missed the SLO. False means every stage passed and true capacity
	// is at or above MaxSessionsAtSLO.
	Saturated bool `json:"saturated"`
}

// RecoveryReport is the outcome of the mid-run SIGKILL drill.
type RecoveryReport struct {
	// Performed distinguishes a measured drill from a run without one.
	Performed bool `json:"performed"`
	// KillAtSeconds, RecoveredAtSeconds and SLORestoredAtSeconds are offsets
	// from the run start: when the server was killed, when the restarted
	// server first answered (a probe round trip or a within-SLO update ack,
	// whichever came first), and when the first post-restart update ack
	// within the SLO was observed.
	KillAtSeconds        float64 `json:"kill_at_seconds"`
	RecoveredAtSeconds   float64 `json:"recovered_at_seconds"`
	SLORestoredAtSeconds float64 `json:"slo_restored_at_seconds"`
	// RTOSeconds is RecoveredAtSeconds - KillAtSeconds: the recovery-time
	// objective actually measured (restart + journal replay + event loop up,
	// proven by the first probe round trip or within-SLO ack, whichever came
	// first, so it never exceeds SLORestoreSeconds).
	RTOSeconds float64 `json:"rto_seconds"`
	// SLORestoreSeconds is SLORestoredAtSeconds - KillAtSeconds: kill until
	// the update path was back within the latency objective.
	SLORestoreSeconds float64 `json:"slo_restore_seconds"`
	// Reconnects counts session resumes observed during the drill.
	Reconnects int64 `json:"reconnects"`
}

// FlightCheck is the outcome of resolving the run's worst update-ack trace
// ID against the server's flight recorder (/debug/flightrec): the black-box
// proof that the tail event's causal chain — update receipt through
// safe-region grant — survived into the post-mortem evidence. It is zero
// without an admin endpoint.
type FlightCheck struct {
	// Trace is the worst update-ack trace ID that was looked up, and Stage
	// the zero-based ramp stage it came from.
	Trace uint64 `json:"trace"`
	Stage int    `json:"stage"`
	// Events counts flight-recorder events carrying the trace; Kinds lists
	// their distinct kinds in ring order.
	Events int      `json:"events"`
	Kinds  []string `json:"kinds,omitempty"`
	// Complete reports a full causal chain: both the causing wire event and
	// the safe-region grant it produced were retained.
	Complete bool `json:"complete"`
}

// HotQuery is the part of one /queries ledger entry the harness judges.
type HotQuery struct {
	Query     uint64 `json:"query"`
	Reevals   int64  `json:"reevals"`
	WireBytes int64  `json:"wire_bytes"`
}

// ServerEvidence is what one server life's admin endpoint showed the
// harness.
type ServerEvidence struct {
	// Families holds each ServerFamilies family's /metrics sample sum; a
	// family the scrape lacked, or served without samples, is absent.
	Families map[string]float64 `json:"families"`
	// Hot is /queries?k=5's hot list, hottest first, and RetiredQueries the
	// ledger's retired_queries count.
	Hot            []HotQuery `json:"hot"`
	RetiredQueries int64      `json:"retired_queries"`
	// TraceEvents counts /trace's Chrome traceEvents entries.
	TraceEvents int `json:"trace_events"`
	// StatsBatch reports whether /stats carries the batch pipeline section.
	StatsBatch bool `json:"stats_batch"`
	// FlightEvents counts /debug/flightrec's events, and ReconnectEvents the
	// reconnect events among them that carry a causal trace ID.
	FlightEvents    int `json:"flight_events"`
	ReconnectEvents int `json:"reconnect_events"`
}

// ConfigEcho pins the inputs that shaped the run into the report, so two
// LOAD_*.json files are only compared when they measured the same workload.
type ConfigEcho struct {
	Seed             int64   `json:"seed"`
	BaseSessions     int     `json:"base_sessions"`
	StageMultipliers []int   `json:"stage_multipliers"`
	StageSeconds     float64 `json:"stage_seconds"`
	TickSeconds      float64 `json:"tick_seconds"`
	ReportSeconds    float64 `json:"report_seconds,omitempty"`
	ProbeSeconds     float64 `json:"probe_seconds"`
	MeanSpeed        float64 `json:"mean_speed"`
	Timescale        float64 `json:"timescale"`
	RangeQueries     int     `json:"range_queries"`
	CircleQueries    int     `json:"circle_queries"`
	KNNQueries       int     `json:"knn_queries"`
	CountQueries     int     `json:"count_queries"`
}

// Report is the machine-readable capacity report the harness emits
// (LOAD_*.json). Every latency is in seconds.
type Report struct {
	Schema   string         `json:"schema"`
	Cores    int            `json:"cores"`
	Config   ConfigEcho     `json:"config"`
	Stages   []StageReport  `json:"stages"`
	Capacity CapacityReport `json:"capacity"`
	Recovery RecoveryReport `json:"recovery"`
	Flight   FlightCheck    `json:"flight"`
	// Server is the first server life's evidence, gathered at the end of the
	// ramp before any drill replaces the process: the server-side view to
	// hold against the stages' client-side latencies. Recovered is the
	// recovered life's, gathered after the drill. Both are nil without an
	// admin endpoint, and Recovered without a drill.
	Server    *ServerEvidence `json:"server,omitempty"`
	Recovered *ServerEvidence `json:"recovered,omitempty"`
}

// Validate checks the report is well-formed and the run measured something: a
// recognized schema, a monotone session ramp, non-zero latency quantiles, a
// capacity figure at the SLO, and — when a drill ran — a finite, correctly
// sequenced recovery timeline; with an admin endpoint, also the server's own
// evidence (validateServer). The CI smoke gate and the tier-1 integration
// test both fail on the first violated property.
func (r *Report) Validate() error {
	if r.Schema != ReportSchema {
		return fmt.Errorf("load: schema %q, want %q", r.Schema, ReportSchema)
	}
	if r.Cores < 1 {
		return fmt.Errorf("load: cores = %d", r.Cores)
	}
	if len(r.Stages) == 0 {
		return fmt.Errorf("load: no ramp stages")
	}
	for i, st := range r.Stages {
		if st.Sessions <= 0 {
			return fmt.Errorf("load: stage %d has %d sessions", i, st.Sessions)
		}
		if i > 0 && st.Sessions <= r.Stages[i-1].Sessions {
			return fmt.Errorf("load: ramp not monotone: stage %d has %d sessions after %d",
				i, st.Sessions, r.Stages[i-1].Sessions)
		}
		if st.DurationSeconds <= 0 {
			return fmt.Errorf("load: stage %d has non-positive duration", i)
		}
		if err := st.UpdateAck.validate(fmt.Sprintf("stage %d update_ack", i)); err != nil {
			return err
		}
		if err := st.ProbeRTT.validate(fmt.Sprintf("stage %d probe_rtt", i)); err != nil {
			return err
		}
		// Any stage that observed acks must have attributed its worst one:
		// a positive exact maximum at or above the histogram's mean, carrying
		// the causal trace ID of the update it acknowledged.
		if st.UpdateAck.Count > 0 {
			if st.WorstAckSeconds <= 0 {
				return fmt.Errorf("load: stage %d observed %d acks but no worst-ack latency", i, st.UpdateAck.Count)
			}
			if st.WorstAckSeconds < st.UpdateAck.Mean {
				return fmt.Errorf("load: stage %d worst ack %gs below mean %gs", i, st.WorstAckSeconds, st.UpdateAck.Mean)
			}
			if st.WorstAckTrace == 0 {
				return fmt.Errorf("load: stage %d worst ack carries no causal trace ID", i)
			}
		}
	}
	// The first stage must actually have exercised both latency families —
	// a report with empty histograms means the workload never ran.
	if r.Stages[0].UpdateAck.Count == 0 {
		return fmt.Errorf("load: first stage observed no update acks")
	}
	if r.Stages[0].ProbeRTT.Count == 0 {
		return fmt.Errorf("load: first stage observed no probe round trips")
	}
	if r.Capacity.SLOP99Seconds <= 0 {
		return fmt.Errorf("load: no declared SLO")
	}
	if r.Capacity.MaxSessionsAtSLO <= 0 {
		return fmt.Errorf("load: no stage met the SLO (p99 objective %gs)", r.Capacity.SLOP99Seconds)
	}
	if r.Capacity.SessionsPerCore <= 0 {
		return fmt.Errorf("load: sessions-per-core capacity not measured")
	}
	if r.Recovery.Performed {
		rec := r.Recovery
		for name, v := range map[string]float64{
			"rto_seconds":          rec.RTOSeconds,
			"slo_restore_seconds":  rec.SLORestoreSeconds,
			"kill_at_seconds":      rec.KillAtSeconds,
			"recovered_at_seconds": rec.RecoveredAtSeconds,
		} {
			if v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
				return fmt.Errorf("load: recovery %s = %g, want finite > 0", name, v)
			}
		}
		if rec.RecoveredAtSeconds <= rec.KillAtSeconds {
			return fmt.Errorf("load: recovery sequencing: recovered at %gs not after kill at %gs",
				rec.RecoveredAtSeconds, rec.KillAtSeconds)
		}
		if rec.SLORestoredAtSeconds < rec.RecoveredAtSeconds {
			return fmt.Errorf("load: recovery sequencing: SLO restored at %gs before the server recovered at %gs",
				rec.SLORestoredAtSeconds, rec.RecoveredAtSeconds)
		}
	}
	if r.Server != nil {
		return r.validateServer()
	}
	return nil
}

// validateServer judges the admin-endpoint evidence: the first server life's
// at the end of the ramp, and the recovered life's when a drill ran.
func (r *Report) validateServer() error {
	s, fl := r.Server, r.Flight
	for _, name := range []string{"srb_updates_total", "srb_reevaluations_total", "srb_server_journal_entries_total"} {
		if s.Families[name] <= 0 {
			return fmt.Errorf("load: server %s = %g at the end of the ramp, want > 0", name, s.Families[name])
		}
	}
	if len(s.Hot) == 0 {
		return fmt.Errorf("load: /queries hot list empty at the end of the ramp")
	}
	hot := s.Hot[0]
	if hot.Query == 0 {
		return fmt.Errorf("load: /queries hottest entry has no query ID")
	}
	if hot.Reevals == 0 && hot.WireBytes == 0 {
		return fmt.Errorf("load: /queries hottest entry %d booked no work", hot.Query)
	}
	if fl.Trace == 0 {
		return fmt.Errorf("load: flight check found no worst-ack trace to resolve")
	}
	if fl.Events == 0 {
		return fmt.Errorf("load: worst-ack trace %#x resolved to no flight-recorder events", fl.Trace)
	}
	if !fl.Complete {
		return fmt.Errorf("load: worst-ack trace %#x causal chain incomplete: kinds %v", fl.Trace, fl.Kinds)
	}
	if !r.Recovery.Performed {
		return nil
	}
	if r.Recovered == nil {
		return fmt.Errorf("load: recovery drill ran but the recovered server was not scraped")
	}
	return r.Recovered.validateRecovered(s.StatsBatch)
}

// validateRecovered judges the recovered life's evidence. batch reports
// whether the first life ran the batch pipeline: the batch families and the
// /stats batch section are required exactly when it did, so a sequential
// server (-workers 0) drills too, but a restart that lost the pipeline fails.
func (a *ServerEvidence) validateRecovered(batch bool) error {
	for _, name := range []string{"srb_updates_total", "srb_reevaluations_total",
		"srb_server_replay_entries", "srb_server_reconnects_total", "srb_server_region_repush_total"} {
		if a.Families[name] <= 0 {
			return fmt.Errorf("load: recovered server %s = %g, want > 0", name, a.Families[name])
		}
	}
	for _, name := range ServerFamilies {
		if _, ok := a.Families[name]; !ok && (batch || !strings.HasPrefix(name, "srb_batch_")) {
			return fmt.Errorf("load: recovered server serves no %s samples", name)
		}
	}
	if a.TraceEvents == 0 {
		return fmt.Errorf("load: recovered server's /trace has no traceEvents")
	}
	if a.RetiredQueries == 0 {
		return fmt.Errorf("load: recovered server's /queries retired no ledger entries")
	}
	if batch && !a.StatsBatch {
		return fmt.Errorf("load: recovered server's /stats has no batch section")
	}
	if a.FlightEvents == 0 {
		return fmt.Errorf("load: recovered server's /debug/flightrec is empty")
	}
	if a.ReconnectEvents == 0 {
		return fmt.Errorf("load: recovered server's /debug/flightrec holds no traced reconnect events (%d events)", a.FlightEvents)
	}
	return nil
}

// validate checks a non-empty summary has sane, ordered quantiles.
func (s LatencySummary) validate(what string) error {
	if s.Count == 0 {
		return nil // an idle later stage is legal; emptiness of stage 1 is checked above
	}
	if s.P50 <= 0 || s.P99 <= 0 || s.P999 <= 0 {
		return fmt.Errorf("load: %s has zero quantiles with %d observations", what, s.Count)
	}
	if s.P50 > s.P99 || s.P99 > s.P999 {
		return fmt.Errorf("load: %s quantiles not monotone: p50=%g p99=%g p999=%g",
			what, s.P50, s.P99, s.P999)
	}
	return nil
}

// WriteFile marshals the report as indented JSON to path.
func (r *Report) WriteFile(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	return os.WriteFile(path, buf, 0o644)
}
