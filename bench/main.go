// Command bench is the repository's benchmark: it drives the paper's client
// protocol (an object reports only when it leaves its safe region, probes are
// answered with the true position, results are checked against internal/exact)
// through one of four fixed-work workloads and prints the end-to-end metrics,
// or, in a traced run, the per-layer metrics measured around the calls into
// each module. See README.md in this directory.
//
//	go -C bench run . --workload range-seq --seed 1 --seconds 18 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "one of: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", fullSeconds, "length the fixed work is sized for (timed windows add up to about this on the reference box)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run, spans in out/trace-<workload>.json")
	flag.Parse()

	p, ok := findWorkload(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "usage: bench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	res, sum, err := runWorkload(p.scaled(*seconds), *seed, *trace == 1)
	if err == nil {
		sum.report(os.Stderr, res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", p.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, p := range workloads {
		out[i] = p.name
	}
	return out
}

// runSummary is what a run's repetitions add up to, before it is turned into
// the metrics of one mode.
type runSummary struct {
	p     params
	reps  []*repResult // untraced repetitions, in order
	pool  pools
	calib float64
	e2e   map[string]float64 // the end-to-end values, also on a traced run
}

// runWorkload runs the repetitions, each over inputs generated from its own
// seed. An untraced run is reps untraced repetitions. A traced run alternates
// untraced and traced repetitions, so tracing overhead is a same-run
// comparison.
func runWorkload(p params, seed int64, traced bool) (*result, *runSummary, error) {
	// One P. The box's two vCPUs behave like hyperthread siblings behind a
	// busy hypervisor: a second busy thread (the garbage collector's workers,
	// the server's goroutines) slows the first by 20-30 %, and waking a parked
	// thread costs 10-50 us at the host's discretion. With two Ps the same
	// code gave update rates 10-25 % apart from run to run (35 % on wire-ack);
	// with one they are 1-4 % apart, and no slower.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sum := &runSummary{p: p, calib: calibrate()}
	var tr *tracer
	if traced {
		tr = newTracer(p)
	}
	sum.pool.ackNs = make([]int64, 0, p.n) // a window holds at most one report per client, or one ack per step
	sum.pool.regNs = make([]int64, 0, regChunk)
	for r := 0; r < reps; r++ {
		var rt *tracer
		if traced && r%2 == 1 {
			rt = tr
		}
		in := genInputs(p, splitmix(seed, uint64(100+r)))
		runtime.GC()
		var rep *repResult
		var err error
		if p.wire {
			rep, err = runWireRep(in, &sum.pool, rt, r)
		} else {
			rep, err = newWorld(in, &sum.pool, rt).run()
		}
		if err != nil {
			return nil, nil, fmt.Errorf("repetition %d: %w", r, err)
		}
		if rt != nil {
			tr.reps = append(tr.reps, rep)
		} else {
			sum.reps = append(sum.reps, rep)
		}
	}
	res := sum.endToEnd()
	if traced {
		layers, err := tr.finish(sum)
		if err != nil {
			return nil, nil, err
		}
		res.Metrics = layers
		for _, rep := range tr.reps {
			res.Attempted += rep.attempted
			res.Failed += rep.failed
		}
		res.Correct = res.Correct && res.Failed == 0
	}
	return res, sum, nil
}
