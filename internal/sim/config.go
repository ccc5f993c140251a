// Package sim is the discrete event-driven simulator used to reproduce the
// performance evaluation of Section 7: it drives N random-waypoint clients
// and W mixed queries against three monitoring schemes — the safe-region
// framework (SRB), the clairvoyant lower bound (OPT), and periodic
// monitoring (PRD) — measuring monitoring accuracy, wireless communication
// cost, and server CPU time.
package sim

import (
	"time"

	"srb/internal/core"
	"srb/internal/geom"
	"srb/internal/obs"
)

// Config describes one simulation run. The zero value is not usable; start
// from Default or Paper.
type Config struct {
	Seed int64
	// N is the number of moving objects; W the number of registered queries
	// (half range, half order-sensitive kNN, as in Section 7.1).
	N, W int
	// MeanSpeed is v̄: object speed is drawn from U[0, 2·v̄] per leg.
	MeanSpeed float64
	// MeanPeriod is t̄v: the constant movement period is drawn from
	// U[0, 2·t̄v].
	MeanPeriod float64
	// QLen is the mean side length of range query rectangles (U[0.5, 1.5]·QLen).
	QLen float64
	// KMax bounds k for kNN queries (k ~ U[1, KMax]).
	KMax int
	// GridM is the query-index resolution M.
	GridM int
	// Duration is the simulated horizon in time units.
	Duration float64
	// SampleEvery is the accuracy sampling interval.
	SampleEvery float64
	// ClientCheckEvery is the period at which a client compares its GPS fix
	// against its safe region (continuous boundary detection is impossible on
	// real positioning hardware; the paper is silent on this granularity).
	// Smaller values detect exits sooner but let near-tied kNN neighbors
	// generate more updates while their order is ambiguous. Defaults to
	// SampleEvery/10.
	ClientCheckEvery float64
	// Tau is the one-way communication delay between clients and the server.
	Tau float64
	// Cl and Cp are the costs of a source-initiated update and of a
	// server-initiated probe-plus-update (uplink twice the downlink: 1, 1.5).
	Cl, Cp float64
	// MaxSpeed enables the reachability-circle enhancement (Section 6.1) when
	// positive; it should be an upper bound on instantaneous object speed
	// (2·MeanSpeed under the waypoint model).
	MaxSpeed float64
	// Steadiness enables the weighted-perimeter enhancement (Section 6.2).
	Steadiness float64
	// DisableBatchRange and GreedyBatch select safe-region ablations.
	DisableBatchRange bool
	GreedyBatch       bool
	// EagerProbes disables lazy probing (ablation).
	EagerProbes bool
	// CellNeighborhood is the adaptive-cell radius of Section 7.4: safe
	// regions may span the (2r+1)² block of grid cells around the object.
	// 0 reproduces the base framework (single cell).
	CellNeighborhood int
	// BatchWorkers, when positive, routes the SRB scheme's source-initiated
	// updates through the batch pipeline of internal/parallel: updates arriving
	// at the server at the same instant (e.g. a client sweep) are applied as
	// one batch planned on this many workers. Results are bit-identical to the
	// sequential path by the pipeline's determinism contract.
	BatchWorkers int
	// LossRate, when positive, models a lossy wireless link (SRB scheme
	// only): each source-initiated update and each safe-region grant is
	// independently lost with this probability, drawn from a dedicated seeded
	// stream so runs stay reproducible. The t=0 bootstrap and server probes
	// remain reliable (the remote layer's probe path falls back to the last
	// reported location, so probe loss does not stall the server).
	LossRate float64
	// ResendTimeout is the client's retransmission timer under LossRate > 0:
	// if no refreshed safe region arrives within this many time units of an
	// update, the client resends its current position. It must exceed the
	// 2·Tau round trip to avoid spurious resends; defaults to
	// 2·Tau + SampleEvery.
	ResendTimeout float64
	// Mobility selects the model: "waypoint" (default) or "directed".
	Mobility string
	// Space is the monitored region.
	Space geom.Rect
	// ProgressEvery, when positive, emits a Progress snapshot roughly every
	// that many simulated time units (aligned to the accuracy sampling grid,
	// since accuracy only changes at sample instants). SRB scheme only.
	ProgressEvery float64
	// Progress receives the periodic snapshots; ignored unless ProgressEvery
	// is positive.
	Progress func(Progress)
	// Obs, when non-nil, attaches this observability sink to the SRB scheme's
	// monitor and batch pipeline, so a long simulation can be scraped and
	// traced like a live server.
	Obs *obs.Sink
}

// Progress is one periodic snapshot of a running SRB simulation: the running
// accuracy and communication counters up to simulated time T.
type Progress struct {
	T        float64
	Scheme   string
	Accuracy float64 // running fraction of correct (query, sample) pairs
	Updates  int64   // source-initiated updates so far
	Probes   int64   // server-initiated probes so far
	CommCost float64 // Cl·Updates + Cp·Probes so far
}

// Default returns a configuration scaled down from Table 7.1 so that full
// experiment sweeps complete in benchmark time; the workload shape (query
// mix, sizes, mobility) matches the paper.
func Default() Config {
	return Config{
		Seed:        1,
		N:           2000,
		W:           40,
		MeanSpeed:   0.01,
		MeanPeriod:  0.005,
		QLen:        0.02,
		KMax:        10,
		GridM:       20,
		Duration:    10,
		SampleEvery: 0.1,
		Cl:          1,
		Cp:          1.5,
		Space:       geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
	}
}

// Paper returns the full-scale parameters of Table 7.1 (N=100,000 objects,
// W=1,000 queries, 5,000 time units). Running every figure at this scale
// takes hours, as it did on the paper's testbed.
func Paper() Config {
	c := Default()
	c.N = 100000
	c.W = 1000
	c.QLen = 0.005
	c.GridM = 50
	c.Duration = 5000
	c.SampleEvery = 0.1
	return c
}

func (c Config) coreOptions() core.Options {
	return core.Options{
		Space:             c.Space,
		GridM:             c.GridM,
		MaxSpeed:          c.MaxSpeed,
		Steadiness:        c.Steadiness,
		DisableBatchRange: c.DisableBatchRange,
		GreedyBatch:       c.GreedyBatch,
		CellNeighborhood:  c.CellNeighborhood,
		EagerProbes:       c.EagerProbes,
	}
}

// Result aggregates the metrics of one scheme run (Section 7.1).
type Result struct {
	Scheme string
	// Accuracy is the amortized monitoring accuracy: the fraction of
	// (query, sample instant) pairs at which the monitored result equals the
	// true result.
	Accuracy float64
	// Updates and Probes count client-initiated updates and server probes.
	Updates int64
	Probes  int64
	// CommCost is the total wireless communication cost (Cl·Updates +
	// Cp·Probes); CommPerClientTime divides by N·Duration (the paper's
	// per-client amortized cost); CommPerDistance divides by the total
	// distance traveled.
	CommCost          float64
	CommPerClientTime float64
	CommPerDistance   float64
	// CPUTime is the wall-clock time spent in server-side processing, and
	// CPUPerTimeUnit its average per simulated time unit.
	CPUTime        time.Duration
	CPUPerTimeUnit float64
	// Distance is the total distance traveled by all clients.
	Distance float64
	// LostUpdates and LostRegions count messages dropped by the lossy link
	// (LossRate > 0): source updates that never reached the server and safe
	// region grants that never reached their client. Resends counts the
	// retransmissions the clients' resend timer triggered.
	LostUpdates, LostRegions, Resends int64
	// Stats carries the SRB server's internal counters (zero for OPT/PRD).
	Stats core.Stats
}
