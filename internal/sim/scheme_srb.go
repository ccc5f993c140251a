package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"

	"srb/internal/core"
	"srb/internal/geom"
	"srb/internal/mobility"
	"srb/internal/parallel"
	"srb/internal/query"
)

// event kinds of the SRB event-driven simulation.
const (
	evExit   = iota // a client crosses its safe-region boundary
	evServer        // a source-initiated update arrives at the server
	evRegion        // a refreshed safe region arrives at a client
	evSweep         // periodic client-side region check (GPS tick)
	evSample        // accuracy sampling instant
	evResend        // lossy link: retransmission timer for an unacked update
)

type event struct {
	t      float64
	seq    int64 // FIFO tie-break keeps causality at equal timestamps
	kind   int
	obj    uint64
	gen    int64
	pos    geom.Point
	region geom.Rect
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	//lint:allow floatcmp comparator tie-break: exact inequality guards the seq fallback
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

type srbClient struct {
	region   geom.Rect
	gen      int64
	awaiting bool
}

// RunSRB simulates the safe-region-based monitoring framework.
func RunSRB(cfg Config) Result {
	curs := newCursors(cfg)
	specs := genQueries(cfg)
	tr := newTruth(cfg, curs)

	res := Result{Scheme: "SRB"}
	var cpu time.Duration
	serverDo := func(f func()) {
		start := time.Now()
		f()
		cpu += time.Since(start)
	}

	// serverNow is the logical server clock observed by the probe callback:
	// probes are synchronous under the paper's sequential-processing
	// assumption, so the object answers with its position at server time.
	var serverNow float64
	mon := core.New(cfg.coreOptions(), core.ProberFunc(func(id uint64) geom.Point {
		return curs[id].At(serverNow)
	}), nil)
	mon.SetObs(cfg.Obs)
	var pipe *parallel.Pipeline
	if cfg.BatchWorkers > 0 {
		pipe = parallel.New(mon, cfg.BatchWorkers)
		pipe.SetObs(cfg.Obs)
	}

	clients := make([]srbClient, cfg.N)
	var events eventHeap
	var seq int64
	push := func(e event) {
		e.seq = seq
		seq++
		heap.Push(&events, e)
	}

	// The lossy-link extension: when LossRate > 0, updates and region grants
	// are dropped with that probability from a dedicated seeded stream (so a
	// LossRate = 0 run draws nothing and stays bit-identical to the reliable
	// model). Lost updates are healed by the clients' resend timer; a lost
	// grant leaves the client monitoring with its stale — strictly larger at
	// grant time — region until its next exchange, which is exactly the
	// accuracy degradation the figL.1 sweep quantifies.
	var lossRng *rand.Rand
	resendTO := cfg.ResendTimeout
	if cfg.LossRate > 0 {
		lossRng = rand.New(rand.NewSource(cfg.Seed*7919 + 13))
		if resendTO <= 0 {
			resendTO = 2*cfg.Tau + cfg.SampleEvery
		}
	}

	// deliver routes the server's safe-region refreshes to the clients.
	deliver := func(t float64, ups []core.SafeRegionUpdate) {
		for _, u := range ups {
			if lossRng != nil && lossRng.Float64() < cfg.LossRate {
				res.LostRegions++
				continue
			}
			push(event{t: t + cfg.Tau, kind: evRegion, obj: u.Object, region: u.Region})
		}
	}

	// Registration phase at t=0: objects first, then the query workload.
	serverNow = 0
	serverDo(func() {
		mon.SetTime(0)
		for i := 0; i < cfg.N; i++ {
			ups := mon.AddObject(uint64(i), curs[i].At(0))
			for _, u := range ups {
				clients[u.Object].region = u.Region
				clients[u.Object].gen++
			}
		}
		for _, qs := range specs {
			var ups []core.SafeRegionUpdate
			var err error
			if qs.Kind == query.KindRange {
				_, ups, err = mon.RegisterRange(qs.ID, qs.Rect)
			} else {
				_, ups, err = mon.RegisterKNN(qs.ID, qs.Point, qs.K, qs.OrderSensitive)
			}
			if err != nil {
				panic(err)
			}
			for _, u := range ups {
				clients[u.Object].region = u.Region
				clients[u.Object].gen++
			}
		}
	})
	probesAtStart := mon.Stats().Probes

	// Clients re-check their safe region at most once per check period:
	// besides modeling discrete positioning hardware, this bounds the update
	// rate of objects riding a paper-thin region (near-tied kNN neighbors).
	minGap := cfg.ClientCheckEvery
	if minGap <= 0 {
		minGap = cfg.SampleEvery / 10
	}
	if minGap <= 0 {
		minGap = 1e-3
	}
	scheduleExit := func(id uint64, from float64) {
		c := &clients[id]
		if te, ok := curs[id].ExitTime(c.region, from, cfg.Duration); ok {
			if te < from+minGap {
				te = from + minGap
			}
			push(event{t: te, kind: evExit, obj: id, gen: c.gen})
		}
	}
	for i := 0; i < cfg.N; i++ {
		scheduleExit(uint64(i), 0)
	}
	// Samples are offset to the middle of each interval so they never alias
	// with periodic events (PRD synchronizations use the same grid).
	for i := 0; ; i++ {
		ts := (float64(i) + 0.5) * cfg.SampleEvery
		if ts > cfg.Duration {
			break
		}
		// Clients verify their region right before each sample instant: exit
		// events are rate limited by minGap, and without this sweep an object
		// microscopically outside a paper-thin region (near-tied kNN
		// neighbors) would be caught mid-window by the sampler.
		push(event{t: ts - 1e-9, kind: evSweep})
		push(event{t: ts, kind: evSample})
	}

	var okSamples, totalSamples int64
	var updates int64

	// Progress snapshots ride the sampling grid: accuracy only changes at
	// sample instants, so finer emission would report stale numbers.
	nextProgress := cfg.ProgressEvery
	emitProgress := func(t float64) {
		if cfg.ProgressEvery <= 0 || cfg.Progress == nil || t < nextProgress {
			return
		}
		for nextProgress <= t {
			nextProgress += cfg.ProgressEvery
		}
		acc := 1.0
		if totalSamples > 0 {
			acc = float64(okSamples) / float64(totalSamples)
		}
		probes := mon.Stats().Probes - probesAtStart
		cfg.Progress(Progress{
			T:        t,
			Scheme:   "SRB",
			Accuracy: acc,
			Updates:  updates,
			Probes:   probes,
			CommCost: cfg.Cl*float64(updates) + cfg.Cp*float64(probes),
		})
	}

	sendUpdate := func(t float64, id uint64) {
		if debugUpdate != nil {
			debugUpdate(t, id)
		}
		c := &clients[id]
		c.awaiting = true
		updates++ // the transmission is paid for whether or not it arrives
		if lossRng != nil && lossRng.Float64() < cfg.LossRate {
			res.LostUpdates++
		} else {
			push(event{t: t + cfg.Tau, kind: evServer, obj: id, pos: curs[id].At(t)})
		}
		if lossRng != nil {
			// Arm the retransmission timer; a region grant (gen bump) or the
			// awaiting flag clearing makes it a no-op.
			push(event{t: t + resendTO, kind: evResend, obj: id, gen: c.gen})
		}
	}

	for events.Len() > 0 {
		e := heap.Pop(&events).(event)
		if e.t > cfg.Duration+1e-9 {
			break
		}
		switch e.kind {
		case evExit:
			c := &clients[e.obj]
			if e.gen != c.gen || c.awaiting {
				break // region changed since scheduling, or update in flight
			}
			sendUpdate(e.t, e.obj)
		case evServer:
			serverNow = e.t //nolint:ineffassign // read by the probe callback
			var ups []core.SafeRegionUpdate
			if pipe != nil {
				// Updates arriving at the same instant — a sweep's burst shares
				// one timestamp — form one batch tick. Heap order makes them
				// consecutive; seq preserves their arrival order in the batch.
				batch := []parallel.Update{{ID: e.obj, Loc: e.pos}}
				//lint:allow floatcmp batch coalescing: only bitwise-identical timestamps share a tick
				for events.Len() > 0 && events[0].kind == evServer && events[0].t == e.t {
					nx := heap.Pop(&events).(event)
					batch = append(batch, parallel.Update{ID: nx.obj, Loc: nx.pos})
				}
				serverDo(func() {
					mon.SetTime(e.t)
					ups = pipe.Apply(batch)
				})
			} else {
				serverDo(func() {
					mon.SetTime(e.t)
					ups = mon.Update(e.obj, e.pos)
				})
			}
			deliver(e.t, ups)
		case evRegion:
			c := &clients[e.obj]
			c.gen++
			c.region = e.region
			c.awaiting = false
			p := curs[e.obj].At(e.t)
			if debugRegion != nil {
				info := fmt.Sprintf("contains=%v pos=%v perim=%.6f", e.region.Contains(p), p, e.region.Perimeter())
				debugRegion(e.t, e.obj, e.region.String(), info)
			}
			if !c.region.Contains(p) {
				// The client already escaped the new region while it was in
				// flight (large τ): report immediately.
				sendUpdate(e.t, e.obj)
				break
			}
			scheduleExit(e.obj, e.t)
		case evResend:
			c := &clients[e.obj]
			if !c.awaiting || e.gen != c.gen {
				break // a region arrived (or a newer update owns the timer)
			}
			res.Resends++
			sendUpdate(e.t, e.obj)
		case evSweep:
			for id := range clients {
				c := &clients[id]
				if c.awaiting {
					continue
				}
				if !c.region.Contains(curs[id].At(e.t)) {
					sendUpdate(e.t, uint64(id))
				}
			}
		case evSample:
			tr.advance(e.t)
			for _, qs := range specs {
				monitored, _ := mon.Results(qs.ID)
				if sameResult(qs, monitored, tr.results(qs)) {
					okSamples++
				} else if debugMismatch != nil {
					debugMismatch(e.t, qs, monitored, tr.results(qs), clients, curs)
				}
				totalSamples++
			}
			for _, c := range curs {
				c.Trim(e.t)
			}
			emitProgress(e.t)
		}
	}

	stats := mon.Stats()
	res.Updates = updates
	res.Probes = stats.Probes - probesAtStart
	res.Stats = stats
	res.CPUTime = cpu
	finalize(&res, cfg, okSamples, totalSamples, curs)
	return res
}

// debugMismatch, when non-nil, is invoked on every accuracy mismatch; test
// instrumentation only.
var debugMismatch func(t float64, qs QuerySpec, monitored, real []uint64, clients []srbClient, curs []*mobility.Cursor)

// debugUpdate, when non-nil, observes every source-initiated update; test
// instrumentation only.
var debugUpdate func(t float64, id uint64)

// debugRegion, when non-nil, observes every safe region delivered to a
// client; test instrumentation only.
var debugRegion func(t float64, id uint64, region, info string)
