// Package analysis is a self-contained static-analysis framework for this
// repository, built only on the standard library's go/ast, go/parser and
// go/types packages (the repo is deliberately zero-dependency). It mirrors a
// small slice of golang.org/x/tools/go/analysis: an Analyzer inspects
// type-checked packages — one at a time (Run) or the whole module at once
// (RunModule, for cross-package properties like the lock-order graph) — and
// reports Diagnostics, and the driver (cmd/srb-lint) applies suppression
// comments before printing.
//
// The analyzers themselves encode project-specific correctness rules of the
// safe-region monitoring framework. The syntactic checks: exact float
// comparison (floatcmp), mutex re-entry and prober callbacks (lockreentry),
// escaping internal slices (sliceescape), untracked goroutines
// (bareGoroutine), and undocumented packages or exported declarations
// (missingdoc). The flow-sensitive checks, built on the CFG/dataflow
// engine in cfg.go and dataflow.go: lock-acquisition-order cycles
// (lockorder), dropped error values (errdrop), blocking network operations
// without a deadline (ctxdeadline), and distance vs squared-distance unit
// mixing (distunits). The interprocedural checks, built on the module call
// graph and bottom-up function summaries in callgraph.go and summary.go: map
// iteration order reaching ordered sinks (maporder), wall-clock/global-rand
// reads reaching the deterministic packages (wallclock), and allocation sites
// reachable from //srb:hotpath roots against a checked-in baseline
// (allochot). The contract checks, combining the call graph, the CFG engine
// and the type checker's constant information: channel lifecycle — sends
// without receivers, receive-side or double closes, blocking channel
// operations under a mutex (chanlife); goroutine termination — infinite
// loops in the long-running surfaces with no channel/context/error-gated
// exit (goroleak); protocol exhaustiveness — wire and journal string
// constants unhandled in dispatch switches or never produced (protodrift);
// and atomic/plain access mixing on the same field (atomicmix). See the
// individual files for the rules, DESIGN.md §8 for the dataflow engine,
// §12 for the interprocedural layer and §13 for the contract checks.
//
// # Suppressions
//
// A finding is suppressed by a comment of the form
//
//	//lint:allow <name>[,<name>...] [reason]
//
// placed either on the same line as the offending expression or on the line
// directly above it. Suppressed findings are counted but do not fail the run.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding reported by an analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed marks findings covered by a //lint:allow comment.
	Suppressed bool
}

// String formats the finding as file:line:col: analyzer: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// PkgPath is the import path of the package under analysis (for package
	// main it is the directory-derived path, not "main").
	PkgPath string

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one static check. Exactly one of Run (per-package) and
// RunModule (whole-module, e.g. the cross-package lock-order graph) is set.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// ModulePass carries every analyzed package through a module-scope analyzer.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos, resolved against pkg's file set.
func (p *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in stable order: the syntactic checks,
// then the flow-sensitive ones, then the interprocedural (call-graph +
// summary) checks, then the concurrency/wire contract checks; see
// callgraph.go and summary.go for the machinery the latter two tiers share.
func All() []*Analyzer {
	return []*Analyzer{FloatCmp, LockReentry, SliceEscape, BareGoroutine,
		MissingDoc, LockOrder, ErrDrop, CtxDeadline, DistUnits,
		MapOrder, WallClock, AllocHot,
		ChanLife, GoroLeak, ProtoDrift, AtomicMix}
}

// ByName resolves a comma-separated analyzer list; empty selects all.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	index := make(map[string]*Analyzer)
	for _, a := range All() {
		index[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := index[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// RunPackage applies the analyzers to one loaded package and returns the
// findings with suppressions resolved, sorted by position. Module-scope
// analyzers in the list see a one-package module.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return Run([]*Package{pkg}, analyzers)
}

// Run applies the analyzers to the loaded packages: per-package analyzers to
// each package in turn, module-scope analyzers once over the whole set. The
// findings come back with suppressions resolved, sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		for _, pkg := range pkgs {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				PkgPath:  pkg.Path,
				diags:    &diags,
			}
			a.Run(pass)
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		a.RunModule(&ModulePass{Analyzer: a, Pkgs: pkgs, diags: &diags})
	}
	for _, pkg := range pkgs {
		applySuppressions(pkg, diags)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
	return diags
}

// allowKey addresses one source line for suppression lookup.
type allowKey struct {
	file string
	line int
}

// allowIndex maps every line covered by a //lint:allow comment (the comment's
// own line and the line directly below it) to the set of analyzer names it
// suppresses. Shared by applySuppressions and the interprocedural summary
// computation (which must not propagate allow-annotated wall-clock facts).
func allowIndex(pkg *Package) map[allowKey]map[string]bool {
	allowed := make(map[allowKey]map[string]bool)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, line := range []int{pos.Line, pos.Line + 1} {
					k := allowKey{pos.Filename, line}
					if allowed[k] == nil {
						allowed[k] = make(map[string]bool)
					}
					for _, n := range names {
						allowed[k][n] = true
					}
				}
			}
		}
	}
	return allowed
}

// applySuppressions marks findings covered by //lint:allow comments. The
// comment suppresses matching analyzers on its own line and on the line
// immediately below it (so both trailing and preceding placements work).
func applySuppressions(pkg *Package, diags []Diagnostic) {
	allowed := allowIndex(pkg)
	for i := range diags {
		set := allowed[allowKey{diags[i].Pos.Filename, diags[i].Pos.Line}]
		if set != nil && (set[diags[i].Analyzer] || set["all"]) {
			diags[i].Suppressed = true
		}
	}
}

// parseAllow extracts the analyzer names from a //lint:allow comment.
func parseAllow(text string) ([]string, bool) {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "lint:allow") {
		return nil, false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, "lint:allow"))
	if rest == "" {
		return nil, false
	}
	list := strings.Fields(rest)[0]
	names := strings.Split(list, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	return names, true
}
