package main

import (
	"math"
	"math/rand"
	"sort"
)

// The paper's message costs (Section 7.1): a source-initiated update costs
// Cl, a server-initiated probe plus its answer Cp.
const (
	costUpdate = 1.0
	costProbe  = 1.5
)

// params fixes one workload. Every count is a constant, so two runs with the
// same seed do identical work; nothing here depends on how fast the machine is.
type params struct {
	name string
	why  string

	n     int         // moving objects
	w     int         // registered queries
	kinds []QueryKind // query mix, assigned round-robin
	qlen  float64     // mean side of range rectangles, mean diameter of circles

	speed  float64 // mean object speed, space units per time unit
	period float64 // mean constant-movement period, time units

	ticks       int // timed windows per repetition at full length: ticks, or wireWindowBlocks blocks of acks
	warmTicks   int // untimed ticks (blocks of acks) before them
	sampleEvery int // oracle comparison every this many ticks

	exact   bool    // clients report at their exact exit instants, not once per tick (see events.go)
	exitGap float64 // exact mode: least time between a grant and the client's next report

	batch int // > 0: reporters go through Pipeline.Apply in ID-ordered batches of at most this size
	churn int // queries deregistered and registered after every tick

	wire bool // the wire-ack workload (wireack.go)
}

// wireBlock is the number of closed-loop acks between two registration round
// trips on the wire-ack workload.
const wireBlock = 64

// fullSeconds is the --seconds value the tick counts above are sized for: on
// the reference box the timed windows of the reps then add up to about that
// long.
const fullSeconds = 14

// reps is the number of fixed-work repetitions per run. Each builds a fresh
// population from its own seed (derived from the run's), so a run averages
// over seven populations and what is left of the seed is a seventh of it.
const reps = 7

var workloads = []params{
	{
		name: "range-seq",
		why:  "50k objects, 1000 range/circle/COUNT queries, sequential Update: grid lookup, range safe regions and R-tree writes do the work, the kNN evaluator none",
		n:    50000, w: 1000, kinds: []QueryKind{KindRange, KindCircle, KindCount}, qlen: 0.01,
		speed: 0.0012, period: 20, ticks: 14, warmTicks: 2, sampleEvery: 7,
	},
	{
		name: "knn-seq",
		why:  "50k objects, 500 kNN queries (k 1..10, half order-sensitive), sequential Update: reevaluation, best-first search and probes dominate, range code idles",
		n:    50000, w: 500, kinds: []QueryKind{KindKNN}, qlen: 0.01,
		exact: true, exitGap: 0.5,
		speed: 0.0002, period: 120, ticks: 8, warmTicks: 1, sampleEvery: 4,
	},
	{
		name: "batch-churn",
		why:  "50k objects, 1000 mixed queries, Pipeline.Apply in batches of 128, 4 queries replaced per tick: plan/apply beside query writes, so a faster lookup bought with a slower Register shows",
		n:    50000, w: 1000, kinds: []QueryKind{KindRange, KindCircle, KindCount}, qlen: 0.01,
		speed: 0.0012, period: 20, ticks: 14, warmTicks: 2, sampleEvery: 7,
		batch: 128, churn: 4,
	},
	{
		name: "wire-ack",
		why:  "journal-recovered server on loopback, one mobile client and one app client in closed loop: the only workload with wire, remote and the journal on the ack path",
		n:    20000, w: 500, kinds: []QueryKind{KindRange, KindCircle, KindCount, KindKNN}, qlen: 0.01,
		ticks: 18, warmTicks: 32, wire: true,
	},
}

func findWorkload(name string) (params, bool) {
	for _, p := range workloads {
		if p.name == name {
			return p, true
		}
	}
	return params{}, false
}

// nearTie is the distance within which an exact-mode kNN answer may differ
// from the oracle's. A client that has crossed its boundary reports at most
// exitGap later, so the positions the program reasons about can each be off by
// the distance a client covers in that time (speed is drawn from [0, 2·mean]),
// and two neighbours nearer to each other than twice that may be ranked
// either way.
func (p params) nearTie() float64 { return 2 * (2 * p.speed * p.exitGap) }

// scaled returns p with its tick counts sized for a run of the given length.
func (p params) scaled(seconds int) params {
	f := float64(seconds) / fullSeconds
	p.ticks = int(math.Max(1, math.Round(float64(p.ticks)*f)))
	p.warmTicks = int(math.Max(1, math.Round(float64(p.warmTicks)*f)))
	return p
}

// genQuery draws the i-th query of a workload. The kind rotates through the
// mix, k through 1..10, and the anchor point falls in the i-th slot of a
// lattice over the space, so every seed has the same composition and the same
// crowding; placement inside the slot and size are random.
func genQuery(rng *rand.Rand, p params, i int, id uint64) QuerySpec {
	q := QuerySpec{ID: id, Kind: p.kinds[i%len(p.kinds)]}
	round := i / len(p.kinds)
	side := int(math.Ceil(math.Sqrt(float64(p.w))))
	slot := i % (side * side)
	anchor := Point{
		X: (float64(slot%side) + rng.Float64()) / float64(side),
		Y: (float64(slot/side) + rng.Float64()) / float64(side),
	}
	switch q.Kind {
	case KindRange, KindCount:
		w := p.qlen * (0.5 + rng.Float64())
		x, y := math.Min(anchor.X, 1-w), math.Min(anchor.Y, 1-w)
		q.Rect = Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + w}
	case KindCircle:
		q.Radius = p.qlen / 2 * (0.5 + rng.Float64())
		q.Center = anchor
	case KindKNN:
		q.K = 1 + round%10
		q.Ordered = (round/10)%2 == 0
		q.Center = anchor
	}
	return q
}

// inputs is everything one repetition feeds the program, generated from the
// repetition's own seed before its clocks start.
type inputs struct {
	p       params
	start   []Point     // object i at time 0
	traj    [][]Point   // traj[t][i]: object i at tick t (tick mode)
	legs    [][]leg     // object i's trajectory (exact mode)
	path    []Point     // the mobile client's positions, one per ack (wire-ack)
	queries []QuerySpec // the initial w, then the churn replacements in order
}

func genInputs(p params, seed int64) *inputs {
	in := &inputs{p: p}
	total := p.warmTicks + p.ticks
	rng := rand.New(rand.NewSource(splitmix(seed, 1)))
	nq := p.w + p.churn*total
	switch {
	case p.wire:
		genWireInputs(in, rng)
		nq = p.w + p.warmTicks + p.ticks*wireWindowBlocks
	case p.exact:
		in.legs = make([][]leg, p.n)
		in.start = make([]Point, p.n)
		for i := range in.legs {
			in.legs[i] = waypointLegs(splitmix(seed, uint64(1000+i)), p, float64(total+1))
			in.start[i] = in.legs[i][0].start
		}
	default:
		in.traj = make([][]Point, total+1)
		for t := range in.traj {
			in.traj[t] = make([]Point, p.n)
		}
		for i := 0; i < p.n; i++ {
			legs := waypointLegs(splitmix(seed, uint64(1000+i)), p, float64(total))
			k := 0
			for t := range in.traj {
				for float64(t) > legs[k].t1 && k < len(legs)-1 {
					k++
				}
				in.traj[t][i] = legs[k].at(float64(t))
			}
		}
		in.start = in.traj[0]
	}
	in.queries = make([]QuerySpec, nq)
	for i := range in.queries {
		in.queries[i] = genQuery(rng, p, i, uint64(i+1))
	}
	return in
}

// stream is a splitmix64 generator: one word of state, so each of 50,000
// objects can own one.
type stream uint64

func (s *stream) float() float64 {
	*s += 0x9e3779b97f4a7c15
	x := uint64(*s)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// waypointLegs draws one object's trajectory under the random waypoint model
// of the paper's evaluation (Section 7.1, as internal/mobility implements it):
// from a uniform start the object repeatedly picks a uniform destination and
// moves towards it at a speed from U[0, 2·speed], until it arrives or a
// period from U[0, 2·period] has passed. The legs cover times 0 to horizon.
func waypointLegs(seed int64, p params, horizon float64) []leg {
	rng := stream(seed)
	at := Point{X: rng.float(), Y: rng.float()}
	var legs []leg
	for t := 0.0; ; {
		dest := Point{X: rng.float(), Y: rng.float()}
		speed := rng.float() * 2 * p.speed
		dur := math.Max(rng.float()*2*p.period, 1e-4)
		l := leg{t0: t, start: at}
		if d := at.Dist(dest); speed > 0 && d > 0 {
			dur = math.Min(dur, d/speed)
			l.v = Point{X: (dest.X - at.X) * speed / d, Y: (dest.Y - at.Y) * speed / d}
		}
		l.t1 = t + dur
		legs = append(legs, l)
		if l.t1 >= horizon {
			return legs
		}
		at, t = l.at(l.t1), l.t1
	}
}

// sameResult compares a monitored result with the oracle's under the query's
// semantics: a sequence for order-sensitive kNN, a set otherwise. truth is
// sorted for every kind but kNN.
func sameResult(q QuerySpec, got, truth []uint64, scratch *[]uint64) bool {
	if len(got) != len(truth) {
		return false
	}
	if q.Kind == KindKNN && q.Ordered {
		for i := range truth {
			if got[i] != truth[i] {
				return false
			}
		}
		return true
	}
	a := append((*scratch)[:0], got...)
	sortIDs(a)
	*scratch = a
	if q.Kind != KindKNN {
		for i := range truth {
			if a[i] != truth[i] {
				return false
			}
		}
		return true
	}
	b := append([]uint64(nil), truth...)
	sortIDs(b)
	for i := range b {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// nearTieResult reports whether a kNN answer that differs from the oracle's
// differs only among near-tied neighbours: rank by rank, the true distance of
// the monitored neighbour is within tol of the true distance of the true one.
func nearTieResult(q QuerySpec, got, truth []uint64, pos []Point, tol float64) bool {
	if len(got) != len(truth) {
		return false
	}
	dg := make([]float64, len(got))
	for i, id := range got {
		dg[i] = pos[id].Dist(q.Center)
	}
	if !q.Ordered {
		sort.Float64s(dg)
	}
	for i, id := range truth {
		if math.Abs(dg[i]-pos[id].Dist(q.Center)) > tol {
			return false
		}
	}
	return true
}

func sortIDs(a []uint64) {
	// Results are short; insertion sort allocates nothing.
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// fnv folds v into a running FNV-1a hash.
func fnv(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 0x100000001b3
		v >>= 8
	}
	return h
}

const fnvOffset = 0xcbf29ce484222325
