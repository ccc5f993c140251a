package analysis

import (
	"go/ast"
)

// wallclockName is referenced from the summary computation (allow-comment
// matching) as a const to avoid an initialization cycle through the Analyzer.
const wallclockName = "wallclock"

// WallClock flags wall-clock and global-rand reads reachable from the
// deterministic packages — internal/core, internal/parallel, internal/wire.
// Those packages define the replayable state machine: the journal replay,
// snapshot round-trip and tree-shape bit-identity proofs all assume
// their behavior is a function of the inputs alone. time.Now or a global
// math/rand draw anywhere on their call paths silently breaks that.
//
// Two report shapes:
//
//   - a direct call in a protected package to time.Now/Since/Until/Tick,
//     a timer/ticker constructor, or a package-level math/rand function;
//   - a call from a protected package into a non-protected module function
//     whose summary is clock/rand tainted (the chain is summarized, so one
//     finding at the boundary call, not one per transitive site).
//
// Deliberate uses — the observability histograms, chaos injection, CLI
// progress — carry `//lint:allow wallclock <reason>`. The allow both
// suppresses the direct finding and stops the taint from entering the
// summaries, so callers of an annotated helper stay clean.
var WallClock = &Analyzer{
	Name:      wallclockName,
	Doc:       "flags time.Now/global-rand reads reachable from the deterministic core/parallel/wire packages",
	RunModule: runWallClock,
}

// wallClockProtected lists the deterministic packages' path suffixes.
var wallClockProtected = []string{"internal/core", "internal/parallel", "internal/wire"}

func runWallClock(mp *ModulePass) {
	st := ipaFor(mp.Pkgs)
	moduleName := moduleNameOf(mp.Pkgs)
	for _, comp := range st.cg.Comps {
		for _, id := range comp {
			node := st.cg.Nodes[id]
			if node == nil || !protectedPkg(node.Pkg.Path, moduleName, wallClockProtected) {
				continue
			}
			checkWallClock(mp, st, node, moduleName)
		}
	}
}

func checkWallClock(mp *ModulePass, st *ipa, node *CGNode, moduleName string) {
	info := node.Pkg.Info
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		switch {
		case isWallClockCall(fn):
			mp.Reportf(node.Pkg, call.Pos(),
				"wall-clock read (time.%s) in deterministic package %s: output must be a function of inputs alone", fn.Name(), node.Pkg.Path)
		case isGlobalRandCall(fn):
			mp.Reportf(node.Pkg, call.Pos(),
				"global math/rand draw (%s) in deterministic package %s: seed a local Source instead", fn.Name(), node.Pkg.Path)
		default:
			// Boundary call: a non-protected module callee whose summary is
			// tainted. Calls within the protected set are skipped — the
			// callee's own direct sites are already reported there.
			if recvInterface(fn) != nil {
				return true
			}
			id := funcID(fn)
			callee := st.cg.Nodes[id]
			if callee == nil || protectedPkg(callee.Pkg.Path, moduleName, wallClockProtected) {
				return true
			}
			s := st.summaries[id]
			if s == nil {
				return true
			}
			if s.WallClock {
				mp.Reportf(node.Pkg, call.Pos(),
					"call into %s reaches a wall-clock read from deterministic package %s", id, node.Pkg.Path)
			} else if s.GlobalRand {
				mp.Reportf(node.Pkg, call.Pos(),
					"call into %s reaches a global math/rand draw from deterministic package %s", id, node.Pkg.Path)
			}
		}
		return true
	})
}
