package analysis

// chanlife.go is the channel-lifecycle analyzer: the concurrency-contract
// half of the v4 suite (protodrift.go is the wire-contract half). The server
// event loop, the client read loops and the flight recorder's dump writer all
// talk over channels; every channel's make/send/receive/close protocol is
// machine-checked, and the check found a real receive-side close in
// FlightRecorder.Close.
//
// A channel is identified by a *cell* abstracted over instances, mirroring
// the lockorder analyzer's lock keys: "Type.field" for a struct field,
// "pkg.var" for a package-level channel, a line-qualified local name
// otherwise. Cells that provably refer to the same channel are unified with
// a union-find: assignment, storing into / loading from a field or map
// element, passing as an argument to a declared module function (the arg
// cell joins the callee's parameter cell), and returning from one (the
// result joins the callee's "ret" cell, so `range app.Updates()` counts as a
// receive on the updates field). Closures are folded into their enclosing
// declaration, as in the call graph. The representative of a unified class
// is the most stable cell (field > package var > param/ret > local), so
// reports name the declaration site a reader can find.
//
// Four rules over the module-wide aggregation:
//
//  1. send-no-receiver: a cell with at least one send site, zero receive
//     sites anywhere in the module, a module-local make, and no escape to
//     code we cannot see. Such a send can only block forever or leak the
//     goroutine.
//  2. receive-side close: a close in a function that neither sends on the
//     cell nor makes it, while other functions do send on it. Close belongs
//     to the sending side; a receive-side close races the senders into a
//     send-on-closed panic.
//  3. double-close: two or more close sites for one cell that are not
//     guarded by sync.Once.Do. One owner (or a Once) must close.
//  4. blocking-under-lock: a blocking channel operation — a send or receive
//     outside any select, or inside a select without a default — executed
//     while a mutex (lockorder's keys) is held. The channel may stay
//     unready indefinitely, extending the critical section into a deadlock
//     vector.
//
// Known imprecision (DESIGN.md §13): cells abstract per declaration, not per
// instance; channels stored in non-map containers or reached through
// interfaces are untracked (their cell is empty and the op is ignored);
// rule 4 tracks only directly-acquired locks and ignores blocking that
// happens inside callees.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ChanLife tracks channel make/send/receive/close sites through per-function
// cells unified module-wide, and checks the lifecycle contract.
var ChanLife = &Analyzer{
	Name:      "chanlife",
	Doc:       "flags sends with no receiver, receive-side or double closes, and blocking channel ops under a mutex",
	RunModule: runChanLife,
}

// chanOpKind is one recorded channel event.
type chanOpKind int

const (
	chanMake chanOpKind = iota
	chanSend
	chanRecv
	chanClose
)

// chanOp is one channel event at a source position, attributed to the
// enclosing declaration.
type chanOp struct {
	cell    string
	kind    chanOpKind
	pkg     *Package
	pos     token.Pos
	fn      string // funcID of the enclosing declaration (closures folded)
	guarded bool   // close inside sync.Once.Do(func(){ ... })
}

// chanState accumulates the module-wide scan.
type chanState struct {
	mp      *ModulePass
	decls   map[string]bool   // funcIDs declared in the module
	parent  map[string]string // union-find over cells
	ops     []chanOp
	escaped map[string]bool // cells handed to code outside the module
}

func runChanLife(mp *ModulePass) {
	st := &chanState{
		mp:      mp,
		decls:   make(map[string]bool),
		parent:  make(map[string]string),
		escaped: make(map[string]bool),
	}
	for _, pkg := range mp.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					st.decls[funcID(obj)] = true
				}
			}
		}
	}
	for _, pkg := range mp.Pkgs {
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
				st.scanFunc(pkg, fd, funcID(obj))
			}
		}
	}
	st.checkLifecycle()
	for _, pkg := range mp.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					checkBlockingUnderLock(mp, pkg, fd.Body)
				}
			}
		}
	}
}

// cellRank orders cell stability for union-find representative election.
func cellRank(cell string) int {
	switch {
	case strings.HasPrefix(cell, "field:"):
		return 4
	case strings.HasPrefix(cell, "global:"):
		return 3
	case strings.HasPrefix(cell, "param:"), strings.HasPrefix(cell, "ret:"):
		return 2
	}
	return 1
}

// cellDisplay strips the internal prefix for report text.
func cellDisplay(cell string) string {
	for _, p := range []string{"field:", "global:", "param:", "ret:", "local:"} {
		if strings.HasPrefix(cell, p) {
			return strings.TrimPrefix(cell, p)
		}
	}
	return cell
}

func (st *chanState) find(cell string) string {
	p, ok := st.parent[cell]
	if !ok || p == cell {
		return cell
	}
	root := st.find(p)
	st.parent[cell] = root
	return root
}

// union merges two cells, electing the more stable (then lexicographically
// smaller, for determinism) as representative.
func (st *chanState) union(a, b string) {
	if a == "" || b == "" {
		return
	}
	ra, rb := st.find(a), st.find(b)
	if ra == rb {
		return
	}
	if cellRank(rb) > cellRank(ra) || (cellRank(rb) == cellRank(ra) && rb < ra) {
		ra, rb = rb, ra
	}
	st.parent[rb] = ra
}

// isChanType reports whether t's underlying type is a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// chanElemType returns the channel element type of a map or slice of
// channels, or nil.
func containerChanElem(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	switch u := t.Underlying().(type) {
	case *types.Map:
		if isChanType(u.Elem()) {
			return u.Elem()
		}
	case *types.Slice:
		if isChanType(u.Elem()) {
			return u.Elem()
		}
	}
	return nil
}

// cellOf names the abstract cell an expression denotes: a struct field, a
// package-level variable, a map/slice element of one of those, the result of
// a declared module function, or a line-qualified local. Empty when the
// shape is untrackable.
func (st *chanState) cellOf(pkg *Package, fnID string, e ast.Expr) string {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		obj := pkg.Info.Uses[x]
		if obj == nil {
			obj = pkg.Info.Defs[x]
		}
		if obj == nil || x.Name == "_" {
			return ""
		}
		if isPackageVar(obj) {
			return "global:" + obj.Pkg().Path() + "." + obj.Name()
		}
		return fmt.Sprintf("local:%s.%s@L%d", fnID, x.Name, pkg.Fset.Position(obj.Pos()).Line)
	case *ast.SelectorExpr:
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
				if obj := pkg.Info.Uses[x.Sel]; obj != nil && isPackageVar(obj) {
					return "global:" + obj.Pkg().Path() + "." + obj.Name()
				}
				return ""
			}
		}
		if named := namedOf(pkg.Info.TypeOf(x.X)); named != nil {
			return "field:" + qualifiedTypeName(named) + "." + x.Sel.Name
		}
		return ""
	case *ast.IndexExpr:
		base := st.cellOf(pkg, fnID, x.X)
		if base == "" {
			return ""
		}
		return base + "[]"
	case *ast.CallExpr:
		if fn := calleeFunc(pkg.Info, x); fn != nil {
			if id := funcID(fn); st.decls[id] {
				return "ret:" + id
			}
		}
		return ""
	}
	return ""
}

func (st *chanState) record(cell string, kind chanOpKind, pkg *Package, pos token.Pos, fn string, guarded bool) {
	if cell == "" {
		return
	}
	st.ops = append(st.ops, chanOp{cell: cell, kind: kind, pkg: pkg, pos: pos, fn: fn, guarded: guarded})
}

// scanFunc records every channel event in one declaration (closures folded).
func (st *chanState) scanFunc(pkg *Package, fd *ast.FuncDecl, fnID string) {
	info := pkg.Info

	// Parameter cells: a channel parameter unifies with the cross-function
	// "param:fn#i" cell that call sites also join their argument cells to.
	if fd.Type.Params != nil {
		idx := 0
		for _, f := range fd.Type.Params.List {
			if len(f.Names) == 0 {
				idx++
				continue
			}
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil && isChanType(obj.Type()) {
					st.union(st.cellOf(pkg, fnID, name), fmt.Sprintf("param:%s#%d", fnID, idx))
				}
				idx++
			}
		}
	}

	// Closes inside sync.Once.Do(func(){ ... }) are once-guarded.
	guardedClose := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || fn.Name() != "Do" || typeName(recvTypeOf(fn)) != "Once" {
			return true
		}
		if len(call.Args) != 1 {
			return true
		}
		lit, ok := ast.Unparen(call.Args[0]).(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if c, ok := m.(*ast.CallExpr); ok && builtinName(info, c) == "close" {
				guardedClose[c] = true
			}
			return true
		})
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					st.bindAssign(pkg, fnID, n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					st.bindAssign(pkg, fnID, name, n.Values[i])
				}
			}
		case *ast.CompositeLit:
			// Struct literal installing channels into fields:
			// &Server{reqs: make(chan request, n)}.
			named := namedOf(info.TypeOf(n))
			if named == nil {
				return true
			}
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || !isChanType(info.TypeOf(kv.Value)) {
					continue
				}
				st.bindAssignCell(pkg, fnID, "field:"+qualifiedTypeName(named)+"."+key.Name, kv.Value)
			}
		case *ast.SendStmt:
			st.record(st.cellOf(pkg, fnID, n.Chan), chanSend, pkg, n.Pos(), fnID, false)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				st.record(st.cellOf(pkg, fnID, n.X), chanRecv, pkg, n.Pos(), fnID, false)
			}
		case *ast.RangeStmt:
			t := info.TypeOf(n.X)
			if isChanType(t) {
				st.record(st.cellOf(pkg, fnID, n.X), chanRecv, pkg, n.Pos(), fnID, false)
				return true
			}
			// Ranging over a map/slice of channels binds the value variable
			// to the container's element cell.
			if containerChanElem(t) != nil && n.Value != nil {
				base := st.cellOf(pkg, fnID, n.X)
				if base != "" {
					st.union(st.cellOf(pkg, fnID, n.Value), base+"[]")
				}
			}
		case *ast.CallExpr:
			switch builtinName(info, n) {
			case "close":
				if len(n.Args) == 1 {
					st.record(st.cellOf(pkg, fnID, n.Args[0]), chanClose, pkg, n.Pos(), fnID, guardedClose[n])
				}
				return true
			case "":
				// Not a builtin: fall through to argument tracking.
			default:
				return true // make/len/cap/...: no channel flow through args
			}
			if isConversion(info, n) {
				return true
			}
			fn := calleeFunc(info, n)
			for i, a := range n.Args {
				if !isChanType(info.TypeOf(a)) {
					continue
				}
				ac := st.cellOf(pkg, fnID, a)
				if ac == "" {
					continue
				}
				if fn != nil {
					if id := funcID(fn); st.decls[id] {
						st.union(ac, fmt.Sprintf("param:%s#%d", id, i))
						continue
					}
				}
				// Handed to code outside the module (signal.Notify, a stored
				// callback, an interface method): receives may happen there.
				st.escaped[ac] = true
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if isChanType(info.TypeOf(r)) {
					st.union(st.cellOf(pkg, fnID, r), "ret:"+fnID)
				}
			}
		}
		return true
	})
}

// bindAssign wires one lhs = rhs pair of channel type.
func (st *chanState) bindAssign(pkg *Package, fnID string, lhs, rhs ast.Expr) {
	if !isChanType(pkg.Info.TypeOf(ast.Unparen(rhs))) {
		return
	}
	st.bindAssignCell(pkg, fnID, st.cellOf(pkg, fnID, lhs), rhs)
}

// bindAssignCell wires an already-resolved destination cell to an rhs: a
// make() is the cell's creation site, a module call result joins the callee's
// ret cell, an external call result is an escape (unknown peer), and any
// other expression unifies the two cells.
func (st *chanState) bindAssignCell(pkg *Package, fnID, lc string, rhs ast.Expr) {
	rhs = ast.Unparen(rhs)
	if call, ok := rhs.(*ast.CallExpr); ok {
		if builtinName(pkg.Info, call) == "make" {
			st.record(lc, chanMake, pkg, call.Pos(), fnID, false)
			return
		}
		if isConversion(pkg.Info, call) {
			if len(call.Args) == 1 {
				st.union(lc, st.cellOf(pkg, fnID, call.Args[0]))
			}
			return
		}
		if fn := calleeFunc(pkg.Info, call); fn != nil {
			if id := funcID(fn); st.decls[id] {
				st.union(lc, "ret:"+id)
				return
			}
		}
		if lc != "" {
			// A channel minted outside the module (time.After, ...): its
			// peers are invisible to us.
			st.escaped[lc] = true
		}
		return
	}
	st.union(lc, st.cellOf(pkg, fnID, rhs))
}

// chanAgg is the module-wide event aggregation of one unified cell class.
type chanAgg struct {
	makes, sends, recvs []chanOp
	closes              []chanOp
	sendFns, makeFns    map[string]bool
	escaped             bool
}

// checkLifecycle applies rules 1–3 over the aggregated cells.
func (st *chanState) checkLifecycle() {
	agg := make(map[string]*chanAgg)
	get := func(cell string) *chanAgg {
		k := st.find(cell)
		a := agg[k]
		if a == nil {
			a = &chanAgg{sendFns: make(map[string]bool), makeFns: make(map[string]bool)}
			agg[k] = a
		}
		return a
	}
	for _, op := range st.ops {
		a := get(op.cell)
		switch op.kind {
		case chanMake:
			a.makes = append(a.makes, op)
			a.makeFns[op.fn] = true
		case chanSend:
			a.sends = append(a.sends, op)
			a.sendFns[op.fn] = true
		case chanRecv:
			a.recvs = append(a.recvs, op)
		case chanClose:
			a.closes = append(a.closes, op)
		}
	}
	for cell := range st.escaped {
		get(cell).escaped = true
	}

	keys := make([]string, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		a := agg[k]
		name := cellDisplay(k)

		// Rule 1: sends with no receiver anywhere.
		if len(a.sends) > 0 && len(a.recvs) == 0 && len(a.makes) > 0 && !a.escaped {
			for _, op := range a.sends {
				st.mp.Reportf(op.pkg, op.pos,
					"send on channel %s, which is never received from anywhere in the module: the send can only block forever or leak", name)
			}
		}

		// Rule 2: close on the receive side while others send.
		if len(a.sendFns) > 0 && len(a.makes) > 0 {
			for _, op := range a.closes {
				if a.sendFns[op.fn] || a.makeFns[op.fn] {
					continue
				}
				st.mp.Reportf(op.pkg, op.pos,
					"channel %s is closed by %s, which never sends on it: close belongs to the sending side (a receive-side close races senders into a send-on-closed panic)",
					name, op.fn)
			}
		}

		// Rule 3: multiple unguarded closes.
		var unguarded []chanOp
		for _, op := range a.closes {
			if !op.guarded {
				unguarded = append(unguarded, op)
			}
		}
		if len(unguarded) >= 2 {
			for _, op := range unguarded {
				st.mp.Reportf(op.pkg, op.pos,
					"channel %s has %d close sites not guarded by sync.Once.Do (double-close panic risk): close from a single owner or guard with a Once",
					name, len(unguarded))
			}
		}
	}
}

// recvTypeOf returns the receiver type of a method, or nil.
func recvTypeOf(fn *types.Func) types.Type {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return sig.Recv().Type()
	}
	return nil
}

// checkBlockingUnderLock runs rule 4 over one function body and its closures:
// the lockorder-style held-set dataflow, flagging blocking channel operations
// at nodes where the set is non-empty. A send or receive that is the
// communication of a select with a default case cannot block and is exempt.
func checkBlockingUnderLock(mp *ModulePass, pkg *Package, body *ast.BlockStmt) {
	// Communication statements of selects that have a default case.
	nonBlocking := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
				nonBlocking[cc.Comm] = true
			}
		}
		return true
	})

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
	// The edge map deduplicates reports across solver iterations (held sets
	// only grow, so the first non-empty visit is representative).
	reported := make(map[token.Pos]bool)
	for _, cfg := range cfgs {
		Solve(cfg, FlowProblem{
			Entry: lockSet{},
			Join:  joinLockSets,
			Transfer: func(b *Block, in Fact) Fact {
				held := in.(lockSet)
				for _, n := range b.Nodes {
					held = blockingTransfer(mp, pkg, n, held, nonBlocking, reported)
				}
				return held
			},
		})
	}
}

// blockingTransfer flags the node's blocking channel ops under the current
// held set, then applies its lock events (mirroring lockorder.transferNode).
func blockingTransfer(mp *ModulePass, pkg *Package, node ast.Node, held lockSet, nonBlocking map[ast.Node]bool, reported map[token.Pos]bool) lockSet {
	report := func(pos token.Pos, what string) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		mp.Reportf(pkg, pos,
			"blocking channel %s while holding mutex %s: the channel may stay unready indefinitely, extending the critical section into a deadlock vector",
			what, strings.Join(held.keys, ", "))
	}
	if len(held.keys) > 0 && !nonBlocking[node] {
		ast.Inspect(node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				return false // separate execution context
			case *ast.SendStmt:
				report(n.Arrow, "send")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					report(n.OpPos, "receive")
				}
			}
			return true
		})
	}

	var deferred *ast.CallExpr
	if ds, ok := node.(*ast.DeferStmt); ok {
		deferred = ds.Call
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			fn := calleeFunc(pkg.Info, n)
			if fn == nil {
				return true
			}
			switch mutexMethodKind(fn) {
			case lockAcquire:
				if n == deferred {
					return true
				}
				if key := lockKeyOf(pkg, n); key != "" {
					held = held.with(key)
				}
			case lockRelease:
				if n == deferred {
					return true
				}
				if key := lockKeyOf(pkg, n); key != "" {
					held = held.without(key)
				}
			}
		}
		return true
	})
	return held
}
