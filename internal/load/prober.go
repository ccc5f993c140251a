package load

import (
	"time"

	"srb/internal/geom"
	"srb/internal/query"
	"srb/internal/remote"
)

// probeIDBase keeps the prober's transient query IDs clear of the workload
// mix registered at queryIDBase.
const probeIDBase = 2_000_000

// prober samples server responsiveness at a fixed rate with a synchronous
// COUNT-query register/deregister round trip: unlike update acks, which only
// flow when objects leave their safe regions, the probe exercises the full
// event loop on schedule and its RTT is measurable even on an idle fleet.
type prober struct {
	h       *harness
	app     *remote.AppClient
	gone    chan struct{} // closed once app's connection is lost
	rect    geom.Rect
	next    query.ID // last query ID issued
	timeout time.Duration
	seed    int64
}

// newProber builds a prober issuing query IDs above idBase, with the given
// round-trip timeout and an RNG stream salted by salt. Its connection dials
// lazily on first use, so a server that is briefly down only costs that
// probe.
func newProber(h *harness, idBase query.ID, timeout time.Duration, salt uint64) *prober {
	// A tiny rect in a deterministic corner of the space: cheap to evaluate,
	// and identical across runs with the same seed.
	sp := h.cfg.Space
	return &prober{
		h:       h,
		rect:    geom.R(sp.MinX, sp.MinY, sp.MinX+0.01*sp.Width(), sp.MinY+0.01*sp.Height()),
		next:    idBase,
		timeout: timeout,
		seed:    sessionSeed(h.cfg.Seed, salt),
	}
}

// loop runs until the harness shuts down, issuing one probe per interval.
func (p *prober) loop() {
	defer p.h.wg.Done()
	defer p.close()
	ticker := time.NewTicker(p.h.cfg.ProbeEvery)
	defer ticker.Stop()
	for {
		select {
		case <-p.h.done:
			return
		case <-ticker.C:
			lat, err := p.once()
			p.h.noteProbe(lat, err)
		}
	}
}

// once performs one probe round trip and returns its latency.
func (p *prober) once() (float64, error) {
	select {
	case <-p.gone:
		// The server went away (a drill kill): a probe sent on the dead conn
		// would wait out its whole timeout, so re-dial instead.
		p.close()
	default:
	}
	if p.app == nil {
		app, err := remote.DialAppOpts(p.h.cfg.Addr, remote.AppOptions{
			RPCTimeout:  p.timeout,
			RPCAttempts: 1,
			Seed:        p.seed,
		})
		if err != nil {
			return 0, err
		}
		app.SetLogf(nil)
		gone := make(chan struct{})
		p.app, p.gone = app, gone
		p.h.wg.Add(1)
		go func() {
			defer p.h.wg.Done()
			for range app.Updates() {
			}
			close(gone)
		}()
	}
	p.next++
	t0 := time.Now()
	_, err := p.app.RegisterCount(p.next, p.rect)
	lat := time.Since(t0).Seconds()
	if err != nil {
		// The conn may be dead (server crash): drop it so the next probe
		// re-dials instead of failing forever.
		p.close()
		return 0, err
	}
	if err := p.app.Deregister(p.next); err != nil {
		p.close()
	}
	return lat, nil
}

// close drops the prober's connection, if any.
func (p *prober) close() {
	if p.app != nil {
		_ = p.app.Close()
		p.app = nil
	}
}
