package remote

import (
	"time"

	"srb/internal/chaos"
	"srb/internal/core"
	"srb/internal/obs"
)

// srvObs holds the server's bound instruments. The event loop pays one nil
// check per request when observability is off; with a sink attached it
// records per-request latency by kind, the size of each coalesced update
// batch, the live client population, and the request queue depth.
type srvObs struct {
	clients       *obs.Gauge
	updateSeconds *obs.Histogram
	opSeconds     *obs.Histogram
	batchSize     *obs.Histogram

	// Fault-tolerance instruments.
	resumed         *obs.Counter // reconnects that resumed a leased session
	rejoined        *obs.Counter // reconnects whose lease had expired
	leaseExpiries   *obs.Counter
	regionRepush    *obs.Counter
	regionSendFail  *obs.Counter
	journalEntries  *obs.Counter
	snapshotSeconds *obs.Histogram
	faults          map[chaos.Dir]map[chaos.Kind]*obs.Counter
}

// SetObs attaches an observability sink to the server and everything it
// hosts: the core monitor, the batch pipeline (current and any created later
// by SetWorkers), and the server's own event-loop instruments. The sink's
// recorder, when it has one, becomes the server's flight recorder
// (SetFlightRecorder); either way the server, its monitor and its pipeline
// record into that one ring. Must be called before Serve; nil detaches.
func (s *Server) SetObs(sink *obs.Sink) {
	if sink == nil || (sink.Registry() == nil && sink.Recorder() == nil) {
		s.reg, s.obs = nil, nil
		s.attachSink()
		return
	}
	if fr := sink.Recorder(); fr != nil {
		s.flight = fr
	}
	r := sink.Registry()
	s.reg = r
	o := &srvObs{}
	o.clients = r.Gauge("srb_server_clients", "Connected mobile clients.")
	help := "Event-loop request latency by kind (update batch or other operation)."
	o.updateSeconds = r.Histogram("srb_server_request_seconds", help, obs.LatencyBuckets(), "kind", "update")
	o.opSeconds = r.Histogram("srb_server_request_seconds", help, obs.LatencyBuckets(), "kind", "op")
	o.batchSize = r.Histogram("srb_server_batch_size", "Location updates coalesced per event-loop batch.", obs.SizeBuckets())
	// Channel length is safe to read from the scrape goroutine.
	r.GaugeFunc("srb_server_queue_depth", "Requests waiting in the event-loop queue.", func() float64 {
		return float64(len(s.reqs))
	})
	rhelp := "Mobile-client reconnects by outcome (resumed = lease held, rejoined = lease had expired)."
	o.resumed = r.Counter("srb_server_reconnects_total", rhelp, "outcome", "resumed")
	o.rejoined = r.Counter("srb_server_reconnects_total", rhelp, "outcome", "rejoined")
	o.leaseExpiries = r.Counter("srb_server_lease_expiries_total", "Disconnected sessions removed after their lease ran out.")
	o.regionRepush = r.Counter("srb_server_region_repush_total", "Safe regions re-pushed to sessions after a resume or a failed push.")
	o.regionSendFail = r.Counter("srb_server_region_send_failures_total", "Safe-region pushes that failed to send; the session is marked for re-push.")
	o.journalEntries = r.Counter("srb_server_journal_entries_total", "Operations appended to the crash-recovery journal.")
	o.snapshotSeconds = r.Histogram("srb_server_snapshot_seconds", "Latency of periodic crash-recovery snapshots.", obs.LatencyBuckets())
	// Recovery runs once, before Serve; expose its outcome as gauges read
	// straight off the server fields (written before any scrape can happen).
	r.GaugeFunc("srb_server_replay_seconds", "Wall time of the last journal replay at startup.", func() float64 {
		return s.replaySeconds
	})
	r.GaugeFunc("srb_server_replay_entries", "Journal entries applied by the last startup recovery.", func() float64 {
		return float64(s.replayEntries)
	})
	fhelp := "Faults injected by the chaos transport wrapper."
	o.faults = make(map[chaos.Dir]map[chaos.Kind]*obs.Counter)
	for _, d := range []chaos.Dir{chaos.DirIn, chaos.DirOut} {
		o.faults[d] = make(map[chaos.Kind]*obs.Counter)
		for _, k := range []chaos.Kind{chaos.KindDrop, chaos.KindDup, chaos.KindDelay, chaos.KindSever} {
			o.faults[d][k] = r.Counter("srb_server_chaos_faults_total", fhelp, "dir", string(d), "kind", string(k))
		}
	}
	s.obs = o
	s.attachSink()
	if s.inj != nil {
		s.inj.OnFault(o.noteFault)
	}
}

// noteFault counts one injected chaos fault; called from connection
// goroutines, so it must not touch event-loop state.
func (o *srvObs) noteFault(d chaos.Dir, k chaos.Kind) {
	if c := o.faults[d][k]; c != nil {
		c.Inc()
	}
}

// noteReconnect counts a resume hello; resumed tells whether the lease was
// still holding the session's object.
func (s *Server) noteReconnect(resumed bool) {
	if s.obs == nil {
		return
	}
	if resumed {
		s.obs.resumed.Inc()
	} else {
		s.obs.rejoined.Inc()
	}
}

func (s *Server) noteLeaseExpiry() {
	if s.obs != nil {
		s.obs.leaseExpiries.Inc()
	}
}

func (s *Server) noteRepush() {
	if s.obs != nil {
		s.obs.regionRepush.Inc()
	}
}

func (s *Server) noteRegionSendFail() {
	if s.obs != nil {
		s.obs.regionSendFail.Inc()
	}
}

func (s *Server) noteJournal() {
	if s.obs != nil {
		s.obs.journalEntries.Inc()
	}
}

func (s *Server) noteSnapshot(d time.Duration) {
	if s.obs != nil {
		s.obs.snapshotSeconds.Observe(d.Seconds())
	}
}

// noteRecovery records the startup recovery outcome on the server; the
// gauges registered in SetObs read these fields.
func (s *Server) noteRecovery(rs core.ReplayStats, d time.Duration) {
	s.replaySeconds = d.Seconds()
	s.replayEntries = rs.Entries
}

// noteClients refreshes the client-population gauge; runs on the event loop.
func (s *Server) noteClients() {
	if s.obs != nil {
		s.obs.clients.Set(float64(len(s.clients)))
	}
}

// noteOp records a non-update event-loop request.
func (s *Server) noteOp(t0 time.Time) {
	if s.obs != nil {
		s.obs.opSeconds.ObserveSince(t0)
	}
}

// noteBatch records one coalesced update batch: its latency, its size, and a
// server-level span framing the core/pipeline spans inside it.
func (s *Server) noteBatch(t0 time.Time, n int) {
	if s.obs != nil {
		dur := time.Since(t0)
		s.obs.updateSeconds.Observe(dur.Seconds())
		s.obs.batchSize.Observe(float64(n))
		s.flight.Record(obs.Event{TS: t0.UnixNano(), Dur: dur.Nanoseconds(), Kind: obs.KindServerBatch,
			Args: [2]int64{int64(n), int64(len(s.reqs))}})
	}
}

// sink is what the server hands the monitor and the pipeline: its registry
// and its one ring, or nil when no sink is attached.
func (s *Server) sink() *obs.Sink {
	if s.obs == nil {
		return nil
	}
	return obs.NewSink(s.reg, s.flight)
}

// attachSink (re)attaches the server's sink to the monitor and the pipeline.
func (s *Server) attachSink() {
	s.mon.SetObs(s.sink())
	if s.pipe != nil {
		s.pipe.SetObs(s.sink())
	}
}
