package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// AllocHot reports every heap-allocation site in functions reachable from a
// //srb:hotpath-annotated root — the batch update spine: Monitor.Update,
// PlanUpdate/ApplyPlanned and Pipeline.Apply. The report is an inventory, not
// a judgement: the driver subtracts a checked-in baseline
// (lint/allochot.baseline) so CI fails only when a *new* site appears on the
// hot path, turning ROADMAP's ~2,500-allocs/tick reduction target into a
// ratchet instead of a one-off cleanup.
//
// Classified sites: make of maps/slices/channels, new, pointer-to-composite
// and slice/map literals, append, closure creation, and interface boxing at
// call arguments (a concrete value passed to an interface parameter, the
// fmt/error pattern). Sites inside a for/range statement carry an "in loop"
// marker — those dominate the per-tick count. //srb:coldpath on a function
// (e.g. the srbdebug-only invariant assertions) cuts traversal so debug-only
// surfaces don't pollute the inventory.
var AllocHot = &Analyzer{
	Name:      "allochot",
	Doc:       "inventories allocation sites reachable from //srb:hotpath roots (baseline-gated in CI)",
	RunModule: runAllocHot,
}

func runAllocHot(mp *ModulePass) {
	st := ipaFor(mp.Pkgs)
	roots := st.cg.HotRoots()
	if len(roots) == 0 {
		return
	}
	reach := st.cg.Reachable(roots)
	for _, id := range sortedKeys(reach) {
		node := st.cg.Nodes[id]
		if node == nil || node.Cold {
			continue
		}
		for _, site := range allocSites(node) {
			marker := ""
			if site.inLoop {
				marker = " in loop"
			}
			mp.Reportf(node.Pkg, site.pos, "hot-path alloc: %s%s (%s)", site.kind, marker, id)
		}
	}
}

// allocSite is one classified allocation in a function body.
type allocSite struct {
	pos    token.Pos
	kind   string
	inLoop bool
}

// allocSites classifies the allocation sites of a declaration, closures
// folded in. Shared with the summary computation (Allocates flag).
func allocSites(node *CGNode) []allocSite {
	info := node.Pkg.Info
	var sites []allocSite
	add := func(pos token.Pos, kind string, depth int) {
		sites = append(sites, allocSite{pos: pos, kind: kind, inLoop: depth > 0})
	}

	var walk func(n ast.Node, loopDepth int)
	walk = func(root ast.Node, loopDepth int) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				if n.Init != nil {
					walk(n.Init, loopDepth)
				}
				if n.Cond != nil {
					walk(n.Cond, loopDepth+1)
				}
				if n.Post != nil {
					walk(n.Post, loopDepth+1)
				}
				walk(n.Body, loopDepth+1)
				return false
			case *ast.RangeStmt:
				walk(n.X, loopDepth)
				walk(n.Body, loopDepth+1)
				return false
			case *ast.FuncLit:
				add(n.Pos(), "closure", loopDepth)
				walk(n.Body, loopDepth)
				return false
			case *ast.CompositeLit:
				if t := info.TypeOf(n); t != nil {
					switch t.Underlying().(type) {
					case *types.Slice:
						add(n.Pos(), "slice-literal", loopDepth)
					case *types.Map:
						add(n.Pos(), "map-literal", loopDepth)
					}
				}
				return true
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
						add(n.Pos(), "new-object", loopDepth)
					}
				}
				return true
			case *ast.CallExpr:
				if b := builtinName(info, n); b != "" {
					switch b {
					case "make":
						if len(n.Args) > 0 {
							if t := info.TypeOf(n.Args[0]); t != nil {
								switch t.Underlying().(type) {
								case *types.Map:
									add(n.Pos(), "make-map", loopDepth)
								case *types.Slice:
									add(n.Pos(), "make-slice", loopDepth)
								case *types.Chan:
									add(n.Pos(), "make-chan", loopDepth)
								}
							}
						}
					case "new":
						add(n.Pos(), "new-object", loopDepth)
					case "append":
						add(n.Pos(), "append", loopDepth)
					}
					return true
				}
				// Interface boxing at call arguments: a concrete value bound
				// to an interface parameter must be heap-boxed.
				if fn := calleeFunc(info, n); fn != nil {
					if sig, ok := fn.Type().(*types.Signature); ok {
						for i, arg := range n.Args {
							if boxesAt(info, sig, i, arg, n.Ellipsis.IsValid()) {
								add(arg.Pos(), "iface-box", loopDepth)
							}
						}
					}
				}
				return true
			}
			return true
		})
	}
	walk(node.Decl.Body, 0)

	sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
	return sites
}

// boxesAt reports whether the i-th argument of a call to sig is a concrete
// (non-interface, non-nil) value bound to an interface parameter.
func boxesAt(info *types.Info, sig *types.Signature, i int, arg ast.Expr, spread bool) bool {
	params := sig.Params()
	if params == nil || params.Len() == 0 {
		return false
	}
	var pt types.Type
	switch {
	case sig.Variadic() && i >= params.Len()-1:
		if spread {
			return false // f(xs...) passes the slice through, no per-arg box
		}
		st, ok := params.At(params.Len() - 1).Type().(*types.Slice)
		if !ok {
			return false
		}
		pt = st.Elem()
	case i < params.Len():
		pt = params.At(i).Type()
	default:
		return false
	}
	if _, ok := pt.(*types.TypeParam); ok {
		return false // instantiated with the argument's own type, no box
	}
	if _, ok := pt.Underlying().(*types.Interface); !ok {
		return false
	}
	at := info.TypeOf(arg)
	if at == nil {
		return false
	}
	if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	if _, ok := at.Underlying().(*types.Interface); ok {
		return false // interface-to-interface, no new box
	}
	return true
}
