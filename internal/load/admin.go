package load

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"time"

	"srb/internal/obs"
)

// ServerFamilies are the metric families an srb-server serves: every
// METRICS.md family outside the application-client and load-harness
// sections, in the doc's order. The report's server sums are taken over
// them, and after a recovery drill Validate requires each one with samples
// (the srb_batch_* ones when the first life ran the batch pipeline).
// TestLoadRequiresEveryServerFamily pins the list to METRICS.md.
var ServerFamilies = []string{
	// core monitor
	"srb_updates_total",
	"srb_probes_total",
	"srb_probes_avoided_total",
	"srb_virtual_probes_total",
	"srb_reevaluations_total",
	"srb_full_reevaluations_total",
	"srb_new_query_evals_total",
	"srb_safe_regions_built_total",
	"srb_result_changes_total",
	"srb_knn_case_total",
	"srb_op_seconds",
	"srb_objects",
	"srb_queries",
	// per-query cost ledger
	"srb_query_tracked",
	"srb_query_retired_total",
	"srb_query_wire_bytes_total",
	"srb_query_slow_ops_total",
	// batch update pipeline
	"srb_batch_batches_total",
	"srb_batch_updates_total",
	"srb_batch_planned_total",
	"srb_batch_fast_total",
	"srb_batch_fallback_total",
	"srb_batch_size",
	"srb_batch_phase_seconds",
	"srb_batch_fastpath_fraction",
	// wire server
	"srb_server_clients",
	"srb_server_request_seconds",
	"srb_server_batch_size",
	"srb_server_queue_depth",
	// fault tolerance
	"srb_server_reconnects_total",
	"srb_server_lease_expiries_total",
	"srb_server_region_repush_total",
	"srb_server_region_send_failures_total",
	"srb_server_journal_entries_total",
	"srb_server_snapshot_seconds",
	"srb_server_replay_seconds",
	"srb_server_replay_entries",
	"srb_server_chaos_faults_total",
}

// scrapeServer gathers one server life's evidence from its admin endpoint,
// and returns the flight recorder's events beside it.
func scrapeServer(base string) (*ServerEvidence, []obs.FlightEvent, error) {
	var err error
	ev := &ServerEvidence{}
	if ev.Families, err = scrapeFamilies(base); err != nil {
		return nil, nil, err
	}
	var ledger struct {
		Hot     []HotQuery `json:"hot"`
		Retired int64      `json:"retired_queries"`
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	var stats struct {
		Batch json.RawMessage `json:"batch"`
	}
	for _, get := range []struct {
		path string
		v    interface{}
	}{{"/queries?k=5", &ledger}, {"/trace", &trace}, {"/stats", &stats}} {
		err := adminGet(base, get.path, func(body io.Reader) error {
			return json.NewDecoder(body).Decode(get.v)
		})
		if err != nil {
			return nil, nil, err
		}
	}
	ev.Hot, ev.RetiredQueries = ledger.Hot, ledger.Retired
	ev.TraceEvents = len(trace.TraceEvents)
	ev.StatsBatch = stats.Batch != nil
	events, err := flightEvents(base)
	if err != nil {
		return nil, nil, err
	}
	ev.FlightEvents = len(events)
	for _, e := range events {
		if e.Kind == obs.FlightReconnect && e.Trace != 0 {
			ev.ReconnectEvents++
		}
	}
	return ev, events, nil
}

// scrapeRecovered scrapes the recovered life until its evidence passes
// validateRecovered or 5 s run out: the admin listener, the readiness probe's
// fire-and-forget deregistration and the resumed sessions' updates may trail
// the drill. The evidence only grows; Validate judges the last scrape.
func scrapeRecovered(base string, batch bool) (*ServerEvidence, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		ev, _, err := scrapeServer(base)
		if (err == nil && ev.validateRecovered(batch) == nil) || time.Now().After(deadline) {
			return ev, err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// checkFlight resolves the ramp's worst update-ack trace against the
// server's flight-recorder events: it picks the stage with the largest worst
// ack and classifies the events carrying that trace. A complete chain has
// both the causing wire event (update receipt, session resume, or query
// registration) and the safe-region grant it produced.
func checkFlight(events []obs.FlightEvent, stages []StageReport) FlightCheck {
	var fc FlightCheck
	for i, st := range stages {
		if st.WorstAckTrace != 0 && st.WorstAckSeconds >= stages[fc.Stage].WorstAckSeconds {
			fc.Stage, fc.Trace = i, st.WorstAckTrace
		}
	}
	if fc.Trace == 0 {
		return fc
	}
	var cause, grant bool
	for _, ev := range events {
		if ev.Trace != fc.Trace {
			continue
		}
		fc.Events++
		if !slices.Contains(fc.Kinds, ev.Kind) {
			fc.Kinds = append(fc.Kinds, ev.Kind)
		}
		switch ev.Kind {
		case obs.FlightUpdate, obs.FlightReconnect, obs.FlightRegister:
			cause = true
		case obs.FlightGrant:
			grant = true
		}
	}
	fc.Complete = cause && grant
	return fc
}

// scrapeFamilies sums each ServerFamilies family's samples from /metrics. A
// family the exposition lacks, or serves without samples, is left out.
func scrapeFamilies(base string) (map[string]float64, error) {
	var fams map[string]*obs.ParsedFamily
	err := adminGet(base, "/metrics", func(body io.Reader) (err error) {
		fams, err = obs.ParseText(body)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, name := range ServerFamilies {
		f := fams[name]
		if f == nil || len(f.Samples) == 0 {
			continue
		}
		var sum float64
		for _, v := range f.Samples {
			sum += v
		}
		out[name] = sum
	}
	return out, nil
}

// flightEvents reads the flight recorder's ring from /debug/flightrec.
func flightEvents(base string) ([]obs.FlightEvent, error) {
	var events []obs.FlightEvent
	err := adminGet(base, "/debug/flightrec", func(body io.Reader) error {
		dec := json.NewDecoder(body)
		for dec.More() {
			var ev obs.FlightEvent
			if err := dec.Decode(&ev); err != nil {
				return err
			}
			events = append(events, ev)
		}
		return nil
	})
	return events, err
}

// adminGet fetches base+path and hands a 200 response's body to decode. A
// failed get, another status or a decode error fails with the path.
func adminGet(base, path string, decode func(io.Reader) error) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return fmt.Errorf("load: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("load: GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(msg)))
	}
	if err := decode(resp.Body); err != nil {
		return fmt.Errorf("load: GET %s: %w", path, err)
	}
	return nil
}
