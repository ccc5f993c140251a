package analysis

// summary.go computes bottom-up per-function summaries over the call graph's
// SCC condensation. A Summary is a tuple of monotone booleans — each starts
// false and is switched on by a direct fact in the function body or by a
// callee's summary — so propagating callee-first (with a fixpoint inside each
// strongly connected component, for recursion) reaches the least solution.
//
// Deliberate imprecision (documented in DESIGN.md §12): a //lint:allow
// wallclock comment on a time/rand call site keeps that site out of the
// summaries entirely, so annotating the deliberate clock reads in
// internal/obs stops the taint from reaching every caller.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Summary is the effect tuple of one declared function, closures included.
type Summary struct {
	// Allocates: the function (or a callee) contains a heap-allocation site
	// as classified by allocSites (make, new, literals, append, closures,
	// interface boxing).
	Allocates bool
	// WallClock / GlobalRand: a non-allow-annotated call to time.Now/Since/
	// Until/Tick, or to a package-level math/rand function, is reachable.
	WallClock  bool
	GlobalRand bool
	// RangesMap: a range over a map is reachable.
	RangesMap bool
	// EmitsOrdered: an order-sensitive sink is reachable — wire.Codec.Send,
	// core.Journal.{Begin,NoteProbe,Commit}, or a gob/json Encoder.Encode.
	EmitsOrdered bool
}

// union merges a callee's effects into the caller's: every flag propagates
// unconditionally through a call.
func (s *Summary) union(o *Summary) bool {
	changed := false
	set := func(dst *bool, v bool) {
		if v && !*dst {
			*dst = true
			changed = true
		}
	}
	set(&s.Allocates, o.Allocates)
	set(&s.WallClock, o.WallClock)
	set(&s.GlobalRand, o.GlobalRand)
	set(&s.RangesMap, o.RangesMap)
	set(&s.EmitsOrdered, o.EmitsOrdered)
	return changed
}

// ipa bundles the interprocedural state the v3 analyzers share: the call
// graph, the summary table, and the module-wide allow index.
type ipa struct {
	cg        *CallGraph
	summaries map[string]*Summary
	allow     map[allowKey]map[string]bool
}

// ipaCache memoizes the interprocedural state per package set, so the three
// analyzers sharing it within one Run build the call graph once. Run drives
// analyzers sequentially, so a single slot without locking suffices.
var ipaCache struct {
	pkgs   []*Package
	result *ipa
}

func ipaFor(pkgs []*Package) *ipa {
	if ipaCache.result != nil && samePkgs(ipaCache.pkgs, pkgs) {
		return ipaCache.result
	}
	st := &ipa{
		cg:    BuildCallGraph(pkgs),
		allow: make(map[allowKey]map[string]bool),
	}
	for _, pkg := range pkgs {
		for k, v := range allowIndex(pkg) {
			st.allow[k] = v
		}
	}
	st.summaries = computeSummaries(st.cg, st.allow)
	ipaCache.pkgs = pkgs
	ipaCache.result = st
	return st
}

func samePkgs(a, b []*Package) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ComputeSummaries builds the per-function summary table for the given call
// graph (exported for tests; analyzers go through ipaFor).
func ComputeSummaries(pkgs []*Package) (*CallGraph, map[string]*Summary) {
	allow := make(map[allowKey]map[string]bool)
	for _, pkg := range pkgs {
		for k, v := range allowIndex(pkg) {
			allow[k] = v
		}
	}
	cg := BuildCallGraph(pkgs)
	return cg, computeSummaries(cg, allow)
}

func computeSummaries(cg *CallGraph, allow map[allowKey]map[string]bool) map[string]*Summary {
	sums := make(map[string]*Summary, len(cg.Nodes))
	// Seed every component member with its direct (intra-body) facts, then
	// iterate the component to a fixpoint: within an SCC a recursive callee's
	// flags may keep growing, outside one they are already final because
	// Comps is in callee-first order.
	for _, comp := range cg.Comps {
		for _, id := range comp {
			if node := cg.Nodes[id]; node != nil {
				sums[id] = directFacts(node, allow)
			}
		}
		for changed := true; changed; {
			changed = false
			for _, id := range comp {
				node := cg.Nodes[id]
				if node == nil {
					continue
				}
				s := sums[id]
				for _, callee := range node.Callees {
					cs := sums[callee]
					if cs == nil {
						continue
					}
					if s.union(cs) {
						changed = true
					}
				}
			}
		}
	}
	return sums
}

// directFacts extracts a declaration's own effects from its body (closures
// folded in).
func directFacts(node *CGNode, allow map[allowKey]map[string]bool) *Summary {
	s := &Summary{}
	info := node.Pkg.Info
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					s.RangesMap = true
				}
			}
		case *ast.CallExpr:
			fn := calleeFunc(info, n)
			if fn == nil {
				return true
			}
			if isWallClockCall(fn) && !allowCovers(allow, node.Pkg, n.Pos(), wallclockName) {
				s.WallClock = true
			}
			if isGlobalRandCall(fn) && !allowCovers(allow, node.Pkg, n.Pos(), wallclockName) {
				s.GlobalRand = true
			}
			if isOrderedSink(fn) {
				s.EmitsOrdered = true
			}
		}
		return true
	})
	if len(allocSites(node)) > 0 {
		s.Allocates = true
	}
	return s
}

// allowCovers reports whether a //lint:allow for the named check covers pos.
func allowCovers(allow map[allowKey]map[string]bool, pkg *Package, pos token.Pos, name string) bool {
	p := pkg.Fset.Position(pos)
	set := allow[allowKey{p.Filename, p.Line}]
	return set != nil && (set[name] || set["all"])
}

// isWallClockCall matches the time-package reads that make output depend on
// the wall clock. Constructors of timers/tickers are included; pure
// formatting and arithmetic on existing values are not.
func isWallClockCall(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	switch fn.Name() {
	case "Now", "Since", "Until", "Tick", "NewTimer", "NewTicker", "After", "AfterFunc":
		return true
	}
	return false
}

// isGlobalRandCall matches package-level math/rand functions drawing from the
// shared global source. Constructors of private sources (New, NewSource, ...)
// are fine: a locally seeded source is deterministic state the caller owns.
func isGlobalRandCall(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	if p := fn.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	switch fn.Name() {
	case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
		return false
	}
	return true
}

// isOrderedSink matches the order-sensitive emission points of the module:
// the wire protocol, the recovery journal, and the gob/json stream encoders
// used by snapshots and the journal file.
func isOrderedSink(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := typeName(sig.Recv().Type())
	switch {
	case recv == "Codec" && fn.Name() == "Send":
		return true
	case recv == "Journal" && (fn.Name() == "Begin" || fn.Name() == "NoteProbe" || fn.Name() == "Commit"):
		return true
	case recv == "Encoder" && fn.Name() == "Encode" && fn.Pkg() != nil &&
		(fn.Pkg().Path() == "encoding/gob" || fn.Pkg().Path() == "encoding/json"):
		return true
	}
	return false
}
