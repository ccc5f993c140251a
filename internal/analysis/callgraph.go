package analysis

// callgraph.go builds the module-wide static call graph underlying the
// interprocedural (v3) analyzers maporder, wallclock and allochot.
//
// Nodes are function and method declarations of the analyzed packages,
// identified by the same cross-package-stable funcID strings the lockorder
// analyzer uses ("pkg.Type.Name" / "pkg.Name"). Function literals are not
// separate nodes: a closure's body is folded into its enclosing declaration,
// so a summary of the declaration over-approximates whatever its closures do
// whenever they run. Edges come from two sources:
//
//   - static calls: a call expression whose callee resolves to a declared
//     module function or method;
//   - interface calls: a call through an interface method is resolved against
//     the method sets of every concrete named type declared in the module —
//     each implementing type contributes an edge to its concrete method. This
//     is the usual class-analysis over-approximation: precise enough for a
//     module whose interfaces (Prober, net handlers) have a handful of
//     implementations, conservative for all of them at once.
//
// Calls through stored function values (fields, variables, parameters)
// contribute no edges; see DESIGN.md §12 for the imprecision catalogue.
//
// The graph is SCC-condensed with the same Tarjan algorithm the lockorder
// analyzer uses (tarjanComps below is shared): Comps lists the strongly
// connected components in callee-first (reverse topological) order, which is
// exactly the bottom-up order the per-function summary computation in
// summary.go needs.

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// hotpathMarker in a function's doc comment makes it an allochot root;
// coldpathMarker removes the function (and everything only reachable through
// it) from hot-path traversal — for debug-only surfaces like the srbdebug
// invariant assertions.
const (
	hotpathMarker  = "//srb:hotpath"
	coldpathMarker = "//srb:coldpath"
)

// CGNode is one declared function or method in the call graph.
type CGNode struct {
	ID   string
	Pkg  *Package
	Decl *ast.FuncDecl
	// Callees lists the funcIDs of module functions this one may call,
	// sorted and deduplicated. Closure bodies are folded in.
	Callees []string
	// Hot and Cold reflect //srb:hotpath and //srb:coldpath doc markers.
	Hot  bool
	Cold bool
}

// CallGraph is the module-wide call graph plus its SCC condensation.
type CallGraph struct {
	Nodes map[string]*CGNode
	// CompOf maps a funcID to its index in Comps.
	CompOf map[string]int
	// Comps lists the strongly connected components in callee-first
	// (reverse topological) order: iterating Comps front to back visits
	// every callee component before any of its callers.
	Comps [][]string
}

// BuildCallGraph constructs the call graph of the loaded packages.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	cg := &CallGraph{Nodes: make(map[string]*CGNode)}

	// Pass 1: nodes, plus the concrete named types used to resolve
	// interface calls.
	type concrete struct {
		pkgPath string
		named   *types.Named
	}
	var concretes []concrete
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &CGNode{ID: funcID(obj), Pkg: pkg, Decl: fd}
				n.Hot = docHasMarker(fd, hotpathMarker)
				n.Cold = docHasMarker(fd, coldpathMarker)
				cg.Nodes[n.ID] = n
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			concretes = append(concretes, concrete{pkg.Path, named})
		}
	}

	// Pass 2: edges.
	for _, node := range cg.Nodes {
		callees := make(map[string]bool)
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(node.Pkg.Info, call)
			if fn == nil {
				return true
			}
			if iface := recvInterface(fn); iface != nil {
				// Interface call: every concrete module type implementing the
				// interface may be the dynamic receiver.
				for _, c := range concretes {
					if implementsEither(c.named, iface) {
						id := c.pkgPath + "." + c.named.Obj().Name() + "." + fn.Name()
						if _, ok := cg.Nodes[id]; ok {
							callees[id] = true
						}
					}
				}
				return true
			}
			if id := funcID(fn); id != node.ID {
				if _, ok := cg.Nodes[id]; ok {
					callees[id] = true
				}
			} else if _, ok := cg.Nodes[id]; ok {
				callees[id] = true // direct recursion is still an edge
			}
			return true
		})
		node.Callees = sortedKeys(callees)
	}

	// SCC condensation, callee-first.
	ids := make([]string, 0, len(cg.Nodes))
	for id := range cg.Nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	adj := make(map[string][]string, len(ids))
	for _, id := range ids {
		adj[id] = cg.Nodes[id].Callees
	}
	cg.CompOf, cg.Comps = tarjanComps(ids, adj)
	return cg
}

// Reachable returns the set of funcIDs reachable from the given roots along
// Callees edges, excluding traversal through //srb:coldpath nodes (the roots
// themselves are always included). The result includes the roots.
func (cg *CallGraph) Reachable(roots []string) map[string]bool {
	seen := make(map[string]bool)
	work := append([]string(nil), roots...)
	sort.Strings(work)
	for len(work) > 0 {
		id := work[0]
		work = work[1:]
		if seen[id] {
			continue
		}
		node := cg.Nodes[id]
		if node == nil {
			continue
		}
		seen[id] = true
		if node.Cold {
			continue // coldpath: counted, not traversed through
		}
		work = append(work, node.Callees...)
	}
	return seen
}

// HotRoots returns the funcIDs of //srb:hotpath-annotated declarations,
// sorted.
func (cg *CallGraph) HotRoots() []string {
	var out []string
	for id, n := range cg.Nodes {
		if n.Hot {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// docHasMarker reports whether a declaration's doc comment contains the
// given //srb: marker on a line of its own.
func docHasMarker(fd *ast.FuncDecl, marker string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == marker {
			return true
		}
	}
	return false
}

// recvInterface returns the interface type a method is declared on, or nil
// for plain functions and concrete methods.
func recvInterface(fn *types.Func) *types.Interface {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	iface, _ := t.Underlying().(*types.Interface)
	return iface
}

// implementsEither reports whether T or *T implements the interface.
func implementsEither(named *types.Named, iface *types.Interface) bool {
	return types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)
}

// tarjanComps computes the strongly connected components of the graph over
// nodes with the given adjacency, returning each node's component index and
// the components themselves. Tarjan finishes a component only after every
// component reachable from it, so Comps comes out in callee-first (reverse
// topological) order — the order a bottom-up summary propagation wants.
// Members within a component are sorted for deterministic iteration.
func tarjanComps(nodes []string, adj map[string][]string) (compOf map[string]int, comps [][]string) {
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	compOf = make(map[string]int)
	var stack []string
	next := 1

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, known := index[w]; !known {
				// Targets outside the node list (edges into undeclared
				// functions) become their own single-node components.
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var members []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				members = append(members, w)
				if w == v {
					break
				}
			}
			sort.Strings(members)
			id := len(comps)
			for _, m := range members {
				compOf[m] = id
			}
			comps = append(comps, members)
		}
	}
	for _, v := range nodes {
		if _, known := index[v]; !known {
			strongconnect(v)
		}
	}
	return compOf, comps
}
