package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder flags taint from Go's randomized map iteration order into the
// module's order-sensitive sinks — the exact property the tree-shape and
// crash-recovery bit-identity tests assume. The protected packages are
// the deterministic spine: internal/core, internal/parallel, internal/wire,
// internal/remote and the root package.
//
// Two rules, both anchored at a `for ... range m` over a map:
//
//  1. The range body reaches an ordered sink — a wire Codec.Send, a
//     journal Begin/NoteProbe/Commit, a gob/json Encoder.Encode — either
//     directly or through a module call whose summary EmitsOrdered. Each
//     iteration then emits in map order: nondeterministic output.
//
//  2. The range body appends to a slice declared outside the range and the
//     function never sorts that slice afterwards (no sort.*/slices.Sort*
//     call mentioning it after the range). That is the repo's
//     collect-then-sort idiom with the sort forgotten; the collected slice
//     carries map order wherever it goes.
//
// Iterations that only fold into order-insensitive state (counters, sets,
// min/max) don't match either rule and stay clean.
var MapOrder = &Analyzer{
	Name:      "maporder",
	Doc:       "flags map-iteration order reaching ordered sinks (wire, journal, snapshot) or unsorted collections",
	RunModule: runMapOrder,
}

// mapOrderProtected lists the import-path suffixes of the deterministic
// packages (matched against the loader's module-qualified paths).
var mapOrderProtected = []string{
	"internal/core", "internal/parallel", "internal/wire", "internal/remote",
}

func protectedPkg(path, moduleName string, suffixes []string) bool {
	if path == moduleName {
		return true // root package
	}
	for _, s := range suffixes {
		if path == moduleName+"/"+s || path == s {
			return true
		}
	}
	return false
}

func runMapOrder(mp *ModulePass) {
	st := ipaFor(mp.Pkgs)
	moduleName := moduleNameOf(mp.Pkgs)
	for _, comp := range st.cg.Comps {
		for _, id := range comp {
			node := st.cg.Nodes[id]
			if node == nil || !protectedPkg(node.Pkg.Path, moduleName, mapOrderProtected) {
				continue
			}
			checkMapRanges(mp, st, node)
		}
	}
}

// moduleNameOf recovers the module path prefix shared by the loaded
// packages ("srb" for this repo): the shortest package path that is a prefix
// of every other, or "" when packages were loaded bare.
func moduleNameOf(pkgs []*Package) string {
	name := ""
	for _, p := range pkgs {
		if i := strings.IndexByte(p.Path, '/'); i > 0 {
			cand := p.Path[:i]
			if name == "" || cand < name {
				name = cand
			}
		} else if p.Path != "" && (name == "" || p.Path < name) {
			name = p.Path
		}
	}
	return name
}

func checkMapRanges(mp *ModulePass, st *ipa, node *CGNode) {
	info := node.Pkg.Info
	body := node.Decl.Body

	// Collect the map ranges first; rule 2 needs the statements *after* each
	// range, so walk with position awareness.
	var ranges []*ast.RangeStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok {
			if t := info.TypeOf(rs.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					ranges = append(ranges, rs)
				}
			}
		}
		return true
	})

	for _, rs := range ranges {
		// Rule 1: ordered sink reachable from the body.
		if pos, sink, ok := sinkInBody(st, node, rs.Body); ok {
			mp.Reportf(node.Pkg, pos,
				"map-iteration order reaches ordered sink %s: each iteration emits in nondeterministic map order (sort the keys first)", sink)
			continue
		}
		// Rule 2: collect-without-sort.
		for _, obj := range unsortedCollects(info, node, rs) {
			mp.Reportf(node.Pkg, rs.For,
				"map-range collects into %q without sorting it afterwards: the slice carries nondeterministic map order (sort after the loop)", obj.Name())
		}
	}
}

// sinkInBody looks for an ordered-sink call in a range body: a direct sink
// call, or a call to a module function whose summary EmitsOrdered.
func sinkInBody(st *ipa, node *CGNode, body *ast.BlockStmt) (token.Pos, string, bool) {
	info := node.Pkg.Info
	var pos token.Pos
	var sink string
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		if isOrderedSink(fn) {
			pos, sink, found = call.Pos(), funcID(fn), true
			return false
		}
		if iface := recvInterface(fn); iface == nil {
			if s := st.summaries[funcID(fn)]; s != nil && s.EmitsOrdered {
				pos, sink, found = call.Pos(), funcID(fn)+" (emits ordered output)", true
				return false
			}
		}
		return true
	})
	return pos, sink, found
}

// unsortedCollects returns the objects of slices that the range body appends
// to, that are declared outside the range, and that the function never sorts
// after the range ends.
func unsortedCollects(info *types.Info, node *CGNode, rs *ast.RangeStmt) []types.Object {
	// Appends inside the body targeting an outer slice variable.
	collected := make(map[types.Object]bool)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			if builtinName(info, call) != "append" {
				continue
			}
			if i >= len(as.Lhs) {
				continue
			}
			id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Uses[id]
			if obj == nil {
				obj = info.Defs[id]
			}
			if obj == nil {
				continue
			}
			// Declared outside the range body (a collector, not a scratch
			// variable of the iteration)?
			if obj.Pos() >= rs.Body.Pos() && obj.Pos() <= rs.Body.End() {
				continue
			}
			if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
				collected[obj] = true
			}
		}
		return true
	})
	if len(collected) == 0 {
		return nil
	}

	// Strike out every collector mentioned in a sort call after the range.
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil {
						delete(collected, obj)
					}
				}
				return true
			})
		}
		return true
	})
	if len(collected) == 0 {
		return nil
	}
	out := make([]types.Object, 0, len(collected))
	for obj := range collected {
		out = append(out, obj)
	}
	sortObjects(out)
	return out
}

func sortObjects(objs []types.Object) {
	for i := 1; i < len(objs); i++ {
		for j := i; j > 0 && objs[j].Pos() < objs[j-1].Pos(); j-- {
			objs[j], objs[j-1] = objs[j-1], objs[j]
		}
	}
}
