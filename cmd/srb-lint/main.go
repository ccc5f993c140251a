// Command srb-lint runs the project-specific static-analysis suite of
// internal/analysis over the module: floatcmp (exact float comparison),
// lockreentry (mutex re-entry and prober callbacks), sliceescape (internal
// slices escaping without a copy), bareGoroutine (untracked goroutines in
// cmd/ and internal/remote), missingdoc (undocumented packages or exported
// declarations), the flow-sensitive v2 checks built on the CFG/dataflow
// engine: lockorder (cross-package lock-acquisition-order cycles), errdrop
// (error values lost along some path) and ctxdeadline (blocking wire
// operations reachable without a deadline) — and the interprocedural v3
// checks built on the module call graph and bottom-up summaries: maporder
// (map-iteration order reaching ordered sinks), wallclock
// (time.Now/global-rand reads reachable from the deterministic packages) and
// allochot (allocation sites reachable from //srb:hotpath roots, gated by a
// checked-in baseline) — and the v4 contract checks combining the call graph,
// the CFG engine and the type checker's constant information: chanlife
// (channel lifecycle: sends with no receiver, receive-side or unguarded
// double closes, blocking channel operations under a mutex), protodrift
// (wire and journal protocol constants unhandled in dispatch switches or
// never produced) and atomicmix (fields accessed both via sync/atomic and
// plain loads/stores).
//
// Usage:
//
//	srb-lint [flags] [packages]
//
// Packages default to ./... relative to the current directory. All requested
// packages are loaded before any analyzer runs, so module-scope checks
// (lockorder, the v3 suite) see the whole module in one pass. The exit code
// is 1 when any unsuppressed finding is reported, 2 on operational errors.
// Findings are suppressed with a trailing or preceding comment:
//
//	//lint:allow floatcmp  <reason>
//
// Findings are printed with module-relative paths, sorted by file, line,
// column and check, so output order is deterministic and diffable. With
// -json each finding is printed as one JSON object per line
// ({file, line, col, check, message, suppressed}) on stdout; human-readable
// counters stay on stderr and the exit codes are unchanged.
//
// -baseline FILE subtracts accepted findings (the allochot inventory) before
// deciding the exit code; -write-baseline FILE regenerates that file from the
// current findings instead of reporting them. Regeneration is deterministic:
// running it twice on an unchanged tree produces byte-identical files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"srb/internal/analysis"
)

func main() {
	os.Exit(run())
}

// jsonFinding is the stable -json record shape.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Check      string `json:"check"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func run() int {
	var (
		checks    = flag.String("checks", "", "comma-separated analyzer names (default: all)")
		tests     = flag.Bool("tests", false, "also analyze _test.go files and external test packages")
		showSupp  = flag.Bool("show-suppressed", false, "print suppressed findings too")
		jsonOut   = flag.Bool("json", false, "print findings as JSON, one object per line")
		verbose   = flag.Bool("v", false, "print each analyzed package")
		baseline  = flag.String("baseline", "", "accepted-findings file to subtract before deciding the exit code")
		writeBase = flag.String("write-baseline", "", "regenerate the accepted-findings file from current findings and exit")
	)
	flag.Parse()

	analyzers, err := analysis.ByName(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "srb-lint:", err)
		return 2
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "srb-lint:", err)
		return 2
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "srb-lint:", err)
		return 2
	}
	loader.IncludeTests = *tests
	paths, err := loader.Expand(cwd, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "srb-lint:", err)
		return 2
	}

	// Load everything first: module-scope analyzers need the whole set.
	var all []*analysis.Package
	for _, path := range paths {
		pkgs, err := loader.LoadForAnalysis(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "srb-lint:", err)
			return 2
		}
		for _, pkg := range pkgs {
			if *verbose {
				fmt.Fprintf(os.Stderr, "srb-lint: analyzing %s (%d files)\n", pkg.Types.Path(), len(pkg.Files))
			}
			all = append(all, pkg)
		}
	}

	moduleDir := loader.ModuleDir()
	diags := analysis.Run(all, analyzers)

	if *writeBase != "" {
		content := analysis.FormatBaseline(moduleDir, diags)
		if err := os.WriteFile(*writeBase, []byte(content), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "srb-lint:", err)
			return 2
		}
		n := 0
		for _, d := range diags {
			if !d.Suppressed {
				n++
			}
		}
		fmt.Fprintf(os.Stderr, "srb-lint: wrote %d accepted finding(s) to %s\n", n, *writeBase)
		return 0
	}

	if *baseline != "" {
		accepted, err := analysis.LoadBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "srb-lint:", err)
			return 2
		}
		matched := analysis.ApplyBaseline(moduleDir, accepted, diags)
		if *verbose {
			fmt.Fprintf(os.Stderr, "srb-lint: baseline %s matched %d of %d accepted finding(s)\n", *baseline, matched, len(accepted))
		}
	}

	enc := json.NewEncoder(os.Stdout)
	unsuppressed, suppressed := 0, 0
	for _, d := range diags {
		if d.Suppressed {
			suppressed++
		} else {
			unsuppressed++
		}
		if d.Suppressed && !*showSupp && !*jsonOut {
			continue
		}
		e := analysis.BaselineEntryOf(moduleDir, d)
		if *jsonOut {
			if err := enc.Encode(jsonFinding{
				File:       e.File,
				Line:       e.Line,
				Col:        e.Col,
				Check:      d.Analyzer,
				Message:    d.Message,
				Suppressed: d.Suppressed,
			}); err != nil {
				fmt.Fprintln(os.Stderr, "srb-lint:", err)
				return 2
			}
			continue
		}
		line := fmt.Sprintf("%s:%d:%d: %s: %s", e.File, e.Line, e.Col, d.Analyzer, d.Message)
		if d.Suppressed {
			fmt.Printf("%s (suppressed)\n", line)
		} else {
			fmt.Println(line)
		}
	}
	if *verbose || unsuppressed > 0 {
		fmt.Fprintf(os.Stderr, "srb-lint: %d finding(s), %d suppressed\n", unsuppressed, suppressed)
	}
	if unsuppressed > 0 {
		return 1
	}
	return 0
}
