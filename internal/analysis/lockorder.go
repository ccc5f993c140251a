package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds the module-wide lock-acquisition-order graph and flags
// cycles — the static witness of a potential deadlock between the monitor
// surfaces (ParallelMonitor and the remote client/server runtimes).
//
// A lock is identified by its declaration site, abstracted over instances:
// "pkg.Type.field" for a mutex field, "pkg.var" for a package-level mutex,
// "pkg.Type.(embedded)" for an embedded one. For every function (and every
// closure, analyzed as its own entry point) a forward dataflow over the CFG
// tracks the set of locks held at each node: Lock/RLock adds, Unlock/RUnlock
// removes, a deferred Unlock never removes (the lock is held to function
// end). Acquiring B while holding A records the edge A→B; calling a module
// function whose (transitive, closure-inclusive) summary acquires B records
// the same edges. Any cycle in the resulting graph — including a self-loop,
// i.e. re-acquiring a held lock — is reported at each participating
// acquisition site.
//
// Known imprecision (see DESIGN.md §8): locks are abstracted per declaration,
// not per instance (two instances of one type are one node); closures passed
// to other functions are analyzed with an empty held set; dynamic calls
// (interfaces, stored function values) contribute no edges; a goroutine
// spawned while holding a lock runs concurrently, so its acquisitions are
// deliberately not ordered after the spawner's held set.
var LockOrder = &Analyzer{
	Name:      "lockorder",
	Doc:       "flags cycles in the module-wide lock-acquisition-order graph (potential deadlocks)",
	RunModule: runLockOrder,
}

// lockDecl is one function/method declaration participating in summaries.
type lockDecl struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// lockEdge is a recorded "to is acquired while from is held" pair.
type lockEdge struct{ from, to string }

type lockOrderState struct {
	mp    *ModulePass
	decls map[string]lockDecl // funcID → declaration
	// summary maps funcID → set of lock keys the call may acquire,
	// transitively through module calls and through non-go closures.
	summary map[string]map[string]bool
	callees map[string]map[string]bool
	// edges maps each edge to the position of its first recorded acquisition
	// site; edgeOrder keeps recording order for deterministic reports.
	edges     map[lockEdge]token.Position
	edgeOrder []lockEdge
}

func runLockOrder(mp *ModulePass) {
	st := &lockOrderState{
		mp:      mp,
		decls:   make(map[string]lockDecl),
		summary: make(map[string]map[string]bool),
		callees: make(map[string]map[string]bool),
		edges:   make(map[lockEdge]token.Position),
	}
	st.index()
	st.solveSummaries()
	for _, pkg := range mp.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				st.flowRoots(pkg, fd.Body)
			}
		}
	}
	st.reportCycles()
}

// index collects every function declaration and its direct lock/callee sets.
func (st *lockOrderState) index() {
	for _, pkg := range st.mp.Pkgs {
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
				id := funcID(obj)
				st.decls[id] = lockDecl{pkg, fd}
				locks := make(map[string]bool)
				callees := make(map[string]bool)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if _, ok := n.(*ast.GoStmt); ok {
						return false // concurrent: not acquired "during" this call
					}
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn := calleeFunc(pkg.Info, call)
					if fn == nil {
						return true
					}
					if kind := mutexMethodKind(fn); kind == lockAcquire {
						if key := lockKeyOf(pkg, call); key != "" {
							locks[key] = true
						}
					} else if kind == mutexNone {
						callees[funcID(fn)] = true
					}
					return true
				})
				st.summary[id] = locks
				st.callees[id] = callees
			}
		}
	}
}

// solveSummaries closes the per-function lock sets over the call graph.
func (st *lockOrderState) solveSummaries() {
	ids := make([]string, 0, len(st.summary))
	for id := range st.summary {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for changed := true; changed; {
		changed = false
		for _, id := range ids {
			locks := st.summary[id]
			for callee := range st.callees[id] {
				for key := range st.summary[callee] {
					if !locks[key] {
						locks[key] = true
						changed = true
					}
				}
			}
		}
	}
}

// lockSet is the dataflow fact: the sorted set of lock keys held.
type lockSet struct{ keys []string }

func (s lockSet) Equal(o Fact) bool {
	t, ok := o.(lockSet)
	if !ok || len(s.keys) != len(t.keys) {
		return false
	}
	for i := range s.keys {
		if s.keys[i] != t.keys[i] {
			return false
		}
	}
	return true
}

func (s lockSet) with(key string) lockSet {
	i := sort.SearchStrings(s.keys, key)
	if i < len(s.keys) && s.keys[i] == key {
		return s
	}
	out := make([]string, 0, len(s.keys)+1)
	out = append(out, s.keys[:i]...)
	out = append(out, key)
	out = append(out, s.keys[i:]...)
	return lockSet{out}
}

func (s lockSet) without(key string) lockSet {
	i := sort.SearchStrings(s.keys, key)
	if i >= len(s.keys) || s.keys[i] != key {
		return s
	}
	out := make([]string, 0, len(s.keys)-1)
	out = append(out, s.keys[:i]...)
	out = append(out, s.keys[i+1:]...)
	return lockSet{out}
}

func (s lockSet) has(key string) bool {
	i := sort.SearchStrings(s.keys, key)
	return i < len(s.keys) && s.keys[i] == key
}

func joinLockSets(a, b Fact) Fact {
	s, t := a.(lockSet), b.(lockSet)
	out := s
	for _, k := range t.keys {
		out = out.with(k)
	}
	return out
}

// flowRoots runs the held-set dataflow over a function body and every closure
// nested in it (each closure with an empty entry set).
func (st *lockOrderState) flowRoots(pkg *Package, body *ast.BlockStmt) {
	main, lits := FuncCFGs(body)
	cfgs := []*CFG{main}
	litKeys := make([]*ast.FuncLit, 0, len(lits))
	for fl := range lits {
		litKeys = append(litKeys, fl)
	}
	sort.Slice(litKeys, func(i, j int) bool { return litKeys[i].Pos() < litKeys[j].Pos() })
	for _, fl := range litKeys {
		cfgs = append(cfgs, lits[fl])
	}
	for _, cfg := range cfgs {
		Solve(cfg, FlowProblem{
			Entry: lockSet{},
			Join:  joinLockSets,
			Transfer: func(b *Block, in Fact) Fact {
				held := in.(lockSet)
				for _, n := range b.Nodes {
					held = st.transferNode(pkg, n, held)
				}
				return held
			},
		})
	}
}

// transferNode applies one block node's lock events to the held set,
// recording order edges as a side effect (the edge map is idempotent, and
// held sets only grow across solver iterations, so every recorded edge is
// valid in the final solution).
func (st *lockOrderState) transferNode(pkg *Package, node ast.Node, held lockSet) lockSet {
	var deferred *ast.CallExpr
	if ds, ok := node.(*ast.DeferStmt); ok {
		deferred = ds.Call
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // analyzed as its own root
		case *ast.GoStmt:
			return false // runs concurrently: no ordering after our held set
		case *ast.CallExpr:
			fn := calleeFunc(pkg.Info, n)
			if fn == nil {
				return true
			}
			switch mutexMethodKind(fn) {
			case lockAcquire:
				if n == deferred {
					return true // defer mu.Lock() — acquiring at exit; ignore
				}
				key := lockKeyOf(pkg, n)
				if key == "" {
					return true
				}
				if held.has(key) {
					st.recordEdge(pkg, key, key, n.Pos())
				} else {
					for _, h := range held.keys {
						st.recordEdge(pkg, h, key, n.Pos())
					}
				}
				held = held.with(key)
			case lockRelease:
				if n == deferred {
					return true // defer mu.Unlock(): held to function end
				}
				if key := lockKeyOf(pkg, n); key != "" {
					held = held.without(key)
				}
			default:
				// A call into the module: everything its summary may acquire
				// is ordered after every lock we hold right now.
				if len(held.keys) == 0 {
					return true
				}
				for _, key := range sortedKeys(st.summary[funcID(fn)]) {
					for _, h := range held.keys {
						st.recordEdge(pkg, h, key, n.Pos())
					}
				}
			}
		}
		return true
	})
	return held
}

func (st *lockOrderState) recordEdge(pkg *Package, from, to string, pos token.Pos) {
	e := lockEdge{from, to}
	if _, ok := st.edges[e]; !ok {
		st.edges[e] = pkg.Fset.Position(pos)
		st.edgeOrder = append(st.edgeOrder, e)
	}
}

// reportCycles finds strongly connected components of the edge graph and
// reports every edge inside one (plus self-loops) at its acquisition site.
func (st *lockOrderState) reportCycles() {
	scc := tarjanSCC(st.edges)
	for _, e := range st.edgeOrder {
		pos := st.edges[e]
		if e.from == e.to {
			st.reportAt(pos, "lock-order: %s is acquired while already held (self-deadlock on a non-reentrant mutex)", e.from)
			continue
		}
		if scc[e.from] != 0 && scc[e.from] == scc[e.to] {
			members := sccMembers(scc, scc[e.from])
			st.reportAt(pos, "lock-order cycle among {%s}: %s is acquired here while %s is held, but elsewhere the order is reversed (potential deadlock)",
				strings.Join(members, ", "), e.to, e.from)
		}
	}
}

// reportAt appends a module diagnostic at an already-resolved position.
func (st *lockOrderState) reportAt(pos token.Position, format string, args ...interface{}) {
	*st.mp.diags = append(*st.mp.diags, Diagnostic{
		Pos:      pos,
		Analyzer: st.mp.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// tarjanSCC assigns a component id (≥1) to every node that shares a cycle
// with at least one other node; acyclic nodes get 0. Built on the shared
// tarjanComps (callgraph.go), which the call-graph condensation also uses.
func tarjanSCC(edges map[lockEdge]token.Position) map[string]int {
	adj := make(map[string][]string)
	for e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	for k := range adj {
		sort.Strings(adj[k])
	}
	nodes := make([]string, 0, len(adj))
	for k := range adj {
		nodes = append(nodes, k)
	}
	sort.Strings(nodes)

	_, comps := tarjanComps(nodes, adj)
	comp := make(map[string]int)
	compID := 0
	for _, members := range comps {
		if len(members) > 1 {
			compID++
			for _, m := range members {
				comp[m] = compID
			}
		}
	}
	return comp
}

func sccMembers(comp map[string]int, id int) []string {
	var out []string
	for k, v := range comp {
		if v == id {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

type mutexKind int

const (
	mutexNone mutexKind = iota
	lockAcquire
	lockRelease
)

// mutexMethodKind classifies a resolved callee as a sync mutex acquire,
// release, or neither.
func mutexMethodKind(fn *types.Func) mutexKind {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return mutexNone
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return mutexNone
	}
	recv := typeName(sig.Recv().Type())
	if recv != "Mutex" && recv != "RWMutex" {
		return mutexNone
	}
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		return lockAcquire
	case "Unlock", "RUnlock":
		return lockRelease
	}
	return mutexNone
}

// lockKeyOf derives the declaration-site key of the mutex a Lock/Unlock call
// operates on: "pkg.Type.field", "pkg.var", "pkg.Type.(embedded)", or a
// line-qualified local name. Empty when the shape is unrecognizable. A free
// function (not a lockOrderState method) because chanlife reuses it to name
// the mutexes held around blocking channel operations.
func lockKeyOf(pkg *Package, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	recv := ast.Unparen(sel.X)
	if u, ok := recv.(*ast.UnaryExpr); ok && u.Op == token.AND {
		recv = ast.Unparen(u.X)
	}
	if !isSyncMutex(pkg.Info.TypeOf(recv)) {
		// Promoted method of an embedded mutex: x.Lock().
		if named := namedOf(pkg.Info.TypeOf(recv)); named != nil {
			return qualifiedTypeName(named) + ".(embedded)"
		}
		return ""
	}
	switch r := recv.(type) {
	case *ast.SelectorExpr:
		if named := namedOf(pkg.Info.TypeOf(r.X)); named != nil {
			return qualifiedTypeName(named) + "." + r.Sel.Name
		}
		return pkg.Path + ".<anon>." + r.Sel.Name
	case *ast.Ident:
		obj := pkg.Info.Uses[r]
		if obj == nil {
			obj = pkg.Info.Defs[r]
		}
		if obj == nil {
			return pkg.Path + "." + r.Name
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		// A local or captured mutex: qualify by declaration line so distinct
		// locals stay distinct while closures over the same var agree.
		return fmt.Sprintf("%s.%s@L%d", pkg.Path, r.Name, pkg.Fset.Position(obj.Pos()).Line)
	}
	return ""
}

func qualifiedTypeName(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// funcID is the cross-package-stable identity of a function: import path,
// receiver type (for methods) and name. Analyzed package variants re-check
// sources into fresh *types.Func objects, so identity must be by name.
func funcID(fn *types.Func) string {
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if recv := typeName(sig.Recv().Type()); recv != "" {
			return pkgPath + "." + recv + "." + fn.Name()
		}
	}
	return pkgPath + "." + fn.Name()
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
