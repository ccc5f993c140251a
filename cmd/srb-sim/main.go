// Command srb-sim reproduces the performance evaluation of Hu, Xu & Lee
// (SIGMOD 2005, Section 7): it runs the discrete event simulator comparing
// safe-region monitoring (SRB) against the optimal (OPT) and periodic (PRD)
// schemes and prints the series behind every figure of the paper.
//
// Usage:
//
//	srb-sim -exp fig7.1a            # one experiment at the default scale
//	srb-sim -exp all                # every table and figure
//	srb-sim -exp all -json          # the same as one JSON record (make repro)
//	srb-sim -exp fig7.2a -n 10000 -w 200 -duration 20
//	srb-sim -list                   # list experiment identifiers
//	srb-sim -full                   # paper-scale parameters (very slow)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"srb/internal/obs"
	"srb/internal/sim"
)

func main() {
	var (
		expID    = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		list     = flag.Bool("list", false, "list available experiments")
		asJSON   = flag.Bool("json", false, "emit the tables as one indented JSON array instead of aligned text")
		full     = flag.Bool("full", false, "use the paper's full-scale parameters (Table 7.1)")
		n        = flag.Int("n", 0, "override the number of moving objects N")
		w        = flag.Int("w", 0, "override the number of queries W")
		duration = flag.Float64("duration", 0, "override the simulated horizon")
		seed     = flag.Int64("seed", 0, "override the workload seed")
		workers  = flag.Int("workers", 0, "SRB batch update pipeline worker count; 0 keeps the sequential path")
		progress = flag.Float64("progress", 0, "print a progress line every this many simulated time units (SRB runs)")
		metrics  = flag.String("metrics", "", "optional HTTP address serving /metrics and /trace for the running simulation")
	)
	flag.Parse()

	if *list {
		for _, e := range sim.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	base := sim.Default()
	if *full {
		base = sim.Paper()
	}
	if *n > 0 {
		base.N = *n
	}
	if *w > 0 {
		base.W = *w
	}
	if *duration > 0 {
		base.Duration = *duration
	}
	if *seed != 0 {
		base.Seed = *seed
	}
	if *workers > 0 {
		base.BatchWorkers = *workers
	}
	if *progress > 0 {
		base.ProgressEvery = *progress
		base.Progress = func(p sim.Progress) {
			fmt.Fprintf(os.Stderr, "progress %s t=%.2f accuracy=%.4f commcost=%.0f updates=%d probes=%d\n",
				p.Scheme, p.T, p.Accuracy, p.CommCost, p.Updates, p.Probes)
		}
	}
	if *metrics != "" {
		reg := obs.NewRegistry()
		fr := obs.NewFlightRecorder(obs.DefaultFlightDepth, "")
		base.Obs = obs.NewSink(reg, fr)
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg)
		mux.HandleFunc("/trace", fr.ServeChromeTrace)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					fmt.Fprintf(os.Stderr, "metrics server panicked: %v\n", r)
				}
			}()
			fmt.Fprintf(os.Stderr, "metrics endpoint on http://%s/metrics\n", *metrics)
			if err := http.ListenAndServe(*metrics, mux); err != nil {
				fmt.Fprintf(os.Stderr, "metrics server: %v\n", err)
			}
		}()
	}

	exps := sim.Experiments()
	if *expID != "all" {
		e, ok := sim.ExperimentByID(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *expID)
			os.Exit(2)
		}
		exps = []sim.Experiment{e}
	}
	var tables []sim.Table
	for _, e := range exps {
		start := time.Now()
		tab := e.Run(base)
		if *asJSON {
			tables = append(tables, tab)
			continue
		}
		fmt.Println(tab.Format())
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if *asJSON {
		out, err := json.MarshalIndent(tables, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", out)
	}
}
