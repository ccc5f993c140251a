package remote

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"

	"srb/internal/core"
	"srb/internal/parallel"
	"srb/internal/viz"
)

// AdminHandler returns an HTTP handler exposing the server's operational
// surface:
//
//	GET /stats            server work counters and population as JSON
//	                      (batch pipeline counters included when enabled)
//	GET /snapshot         the monitor state as a gob snapshot (core.SaveSnapshot)
//	GET /svg              the spatial state rendered as SVG (safe regions included)
//	GET /metrics          Prometheus text exposition (404 until SetObs)
//	GET /trace            the flight recorder's ring as Chrome trace-event JSON
//	                      (load in chrome://tracing or https://ui.perfetto.dev;
//	                      404 until SetFlightRecorder or a sink with a ring)
//	GET /queries          per-query cost ledger as JSON: hottest queries first
//	                      (?k=N caps the list, default 20), plus the
//	                      Unattributed and Retired buckets (404 until SetObs)
//	GET /debug/flightrec  the flight recorder's ring as NDJSON (404 until
//	                      SetFlightRecorder)
//	GET /debug/pprof/...  the standard net/http/pprof profiling surface
//
// /stats, /snapshot, /svg and /queries serialize through the event loop, so
// they observe consistent state; /metrics, /trace and /debug/flightrec never
// touch the loop.
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		var payload struct {
			Objects int             `json:"objects"`
			Queries int             `json:"queries"`
			Clients int             `json:"clients"`
			Stats   core.Stats      `json:"stats"`
			Batch   *parallel.Stats `json:"batch,omitempty"`
		}
		if err := s.do(func() {
			payload.Objects = s.mon.NumObjects()
			payload.Queries = s.mon.NumQueries()
			payload.Clients = len(s.clients)
			payload.Stats = s.mon.Stats()
			if s.pipe != nil {
				bs := s.pipe.Stats()
				payload.Batch = &bs
			}
		}); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(payload)
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		var err error
		if derr := s.do(func() {
			w.Header().Set("Content-Type", "application/octet-stream")
			err = s.mon.SaveSnapshot(w)
		}); derr != nil {
			http.Error(w, derr.Error(), http.StatusServiceUnavailable)
			return
		}
		if err != nil {
			s.logf("remote: snapshot: %v", err)
		}
	})
	mux.HandleFunc("/svg", func(w http.ResponseWriter, r *http.Request) {
		var snap viz.Snapshot
		if err := s.do(func() {
			snap = viz.Capture(s.mon, s.mon.ObjectIDs(), s.mon.QueryIDs())
		}); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "image/svg+xml")
		if err := viz.Render(w, snap, viz.Options{Space: s.opt.Space, ShowSafeRegions: true, ShowQuarantines: true}); err != nil {
			s.logf("remote: render svg: %v", err)
		}
	})
	mux.HandleFunc("/queries", func(w http.ResponseWriter, r *http.Request) {
		k := 20
		if v := r.URL.Query().Get("k"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				k = n
			}
		}
		var payload struct {
			Hot          []core.QueryCost `json:"hot"`
			Unattributed core.QueryCost   `json:"unattributed"`
			Retired      core.QueryCost   `json:"retired"`
			RetiredN     int64            `json:"retired_queries"`
		}
		var enabled bool
		if err := s.do(func() {
			payload.Hot = s.mon.HotQueries(k)
			payload.Unattributed = s.mon.UnattributedCost()
			payload.Retired = s.mon.RetiredCost()
			payload.RetiredN = s.mon.RetiredQueries()
			enabled = s.mon.QueryCosts() != nil
		}); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		if !enabled {
			http.Error(w, "per-query ledger disabled (no observability sink attached)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(payload)
	})
	mux.HandleFunc("/debug/flightrec", func(w http.ResponseWriter, r *http.Request) {
		// A nil recorder answers 404 itself.
		s.flight.ServeHTTP(w, r)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		reg := s.reg
		if reg == nil {
			http.Error(w, "metrics disabled (no observability sink attached)", http.StatusNotFound)
			return
		}
		reg.ServeHTTP(w, r)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		// A nil recorder answers 404 itself.
		s.flight.ServeChromeTrace(w, r)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
