package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockReentry guards the two documented deadlock hazards of the concurrent
// monitor surface:
//
//  1. Mutex re-entry: a method that acquires a sync.Mutex/RWMutex field of
//     its receiver and holds it to function end (the Lock + defer Unlock
//     idiom) must not subsequently call another method of the same receiver
//     that locks the same field — sync mutexes are not reentrant, so the
//     call path self-deadlocks. Methods that release the lock manually
//     before calling out (paired Lock/Unlock blocks) are not flagged; the
//     analyzer is deliberately defer-shaped rather than flow-sensitive.
//  2. Prober callbacks: a function passed as a Prober/ProberFunc is invoked
//     by the monitor while its operation (and, for ParallelMonitor, its
//     lock) is in flight; a callback that calls back into a Monitor or
//     ParallelMonitor method deadlocks or corrupts the in-progress
//     operation.
var LockReentry = &Analyzer{
	Name: "lockreentry",
	Doc:  "flags self-deadlocking mutex re-entry and prober callbacks that re-enter the monitor",
	Run:  runLockReentry,
}

func runLockReentry(pass *Pass) {
	decls := funcDecls(pass)
	locking := lockingMethods(pass)
	checkMutexReentry(pass, locking)
	checkProberCallbacks(pass, decls)
}

// lockKey identifies "method M of named type T locks mutex field F".
type lockKey struct {
	typ    *types.Named
	method string
}

// lockingMethods maps every method in the package that calls
// recv.<field>.Lock() / RLock() on a sync mutex field of its receiver to the
// set of fields it locks.
func lockingMethods(pass *Pass) map[lockKey]map[string]bool {
	out := make(map[lockKey]map[string]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			recv := recvIdent(fd)
			if recv == nil {
				continue
			}
			named := namedOf(pass.Info.TypeOf(fd.Recv.List[0].Type))
			if named == nil {
				continue
			}
			fields := make(map[string]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false // a lock inside a closure is not taken by this call
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if field, ok := mutexMethodOnReceiver(pass, call, recv, "Lock", "RLock"); ok {
					fields[field] = true
				}
				return true
			})
			if len(fields) > 0 {
				out[lockKey{named, fd.Name.Name}] = fields
			}
		}
	}
	return out
}

// mutexMethodOnReceiver matches calls of the form recv.field.M() where M is
// one of the given mutex methods and field is a sync.Mutex or sync.RWMutex,
// returning the field name.
func mutexMethodOnReceiver(pass *Pass, call *ast.CallExpr, recv *ast.Ident, methods ...string) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	match := false
	for _, m := range methods {
		if sel.Sel.Name == m {
			match = true
			break
		}
	}
	if !match {
		return "", false
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	base, ok := ast.Unparen(inner.X).(*ast.Ident)
	if !ok || base.Name != recv.Name {
		return "", false // the locked value must be reached through the receiver
	}
	if !isSyncMutex(pass.Info.TypeOf(inner)) {
		return "", false
	}
	return inner.Sel.Name, true
}

func isSyncMutex(t types.Type) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// checkMutexReentry reports calls from a method holding a receiver mutex to
// function end (Lock + defer Unlock) to another method of the same receiver
// that locks an already-held field.
func checkMutexReentry(pass *Pass, locking map[lockKey]map[string]bool) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			recv := recvIdent(fd)
			if recv == nil {
				continue
			}
			named := namedOf(pass.Info.TypeOf(fd.Recv.List[0].Type))
			if named == nil {
				continue
			}
			held := heldToEnd(pass, fd, recv)
			if len(held) == 0 {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false // closures run later, possibly without the lock
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				base, ok := ast.Unparen(sel.X).(*ast.Ident)
				if !ok || base.Name != recv.Name {
					return true
				}
				callee := locking[lockKey{named, sel.Sel.Name}]
				if callee == nil {
					return true
				}
				for field, lockPos := range held {
					if callee[field] && call.Pos() > lockPos {
						pass.Reportf(call.Pos(), "%s.%s re-enters %s.%s while holding %s.%s (sync mutexes are not reentrant; this self-deadlocks)",
							named.Obj().Name(), fd.Name.Name, named.Obj().Name(), sel.Sel.Name, recv.Name, field)
						return true
					}
				}
				return true
			})
		}
	}
}

// heldToEnd returns the receiver mutex fields a method acquires and holds for
// the remainder of the function — a recv.f.Lock() paired with a deferred
// recv.f.Unlock() — mapped to the position of the Lock call.
func heldToEnd(pass *Pass, fd *ast.FuncDecl, recv *ast.Ident) map[string]token.Pos {
	locked := make(map[string]token.Pos)
	deferred := make(map[string]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch s := n.(type) {
		case *ast.DeferStmt:
			if field, ok := mutexMethodOnReceiver(pass, s.Call, recv, "Unlock", "RUnlock"); ok {
				deferred[field] = true
			}
			return false
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if field, ok := mutexMethodOnReceiver(pass, call, recv, "Lock", "RLock"); ok {
					if _, seen := locked[field]; !seen {
						locked[field] = call.Pos()
					}
				}
			}
		}
		return true
	})
	out := make(map[string]token.Pos)
	for field, pos := range locked {
		if deferred[field] {
			out[field] = pos
		}
	}
	return out
}

// checkProberCallbacks flags prober implementations handed to the monitor
// that call back into Monitor/ParallelMonitor methods.
func checkProberCallbacks(pass *Pass, decls map[*types.Func]*ast.FuncDecl) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for i, arg := range call.Args {
				if !isProberPosition(pass, call, i) {
					continue
				}
				if body := callbackBody(pass, decls, arg); body != nil {
					reportMonitorCalls(pass, body, arg)
				}
			}
			return true
		})
	}
}

// isProberPosition reports whether argument i of the call lands in a
// parameter (or conversion target) whose named type is Prober or ProberFunc.
func isProberPosition(pass *Pass, call *ast.CallExpr, i int) bool {
	// Conversion: ProberFunc(f).
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		return isProberType(tv.Type)
	}
	sig, ok := pass.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return false
	}
	params := sig.Params()
	if params == nil {
		return false
	}
	idx := i
	if sig.Variadic() && idx >= params.Len()-1 {
		idx = params.Len() - 1
	}
	if idx >= params.Len() {
		return false
	}
	return isProberType(params.At(idx).Type())
}

func isProberType(t types.Type) bool {
	name := typeName(t)
	return name == "Prober" || name == "ProberFunc"
}

// callbackBody resolves the function body of a prober argument: a literal
// closure, or a same-package function/method reference.
func callbackBody(pass *Pass, decls map[*types.Func]*ast.FuncDecl, arg ast.Expr) ast.Node {
	switch a := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		return a.Body
	case *ast.CallExpr:
		// Nested conversion like ProberFunc(func(...) ...).
		if tv, ok := pass.Info.Types[a.Fun]; ok && tv.IsType() && len(a.Args) == 1 {
			return callbackBody(pass, decls, a.Args[0])
		}
	case *ast.Ident:
		if fn, ok := pass.Info.Uses[a].(*types.Func); ok {
			if fd := decls[fn]; fd != nil && fd.Body != nil {
				return fd.Body
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.Info.Uses[a.Sel].(*types.Func); ok {
			if fd := decls[fn]; fd != nil && fd.Body != nil {
				return fd.Body
			}
		}
	}
	return nil
}

// reportMonitorCalls flags calls to Monitor/ParallelMonitor methods inside
// a prober callback body.
func reportMonitorCalls(pass *Pass, body ast.Node, arg ast.Expr) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recvName := typeName(pass.Info.TypeOf(sel.X))
		if recvName == "Monitor" || recvName == "ParallelMonitor" {
			pass.Reportf(call.Pos(), "prober callback calls %s.%s: probers run while the monitor operation (and lock) is in flight and must not re-enter the monitor", recvName, sel.Sel.Name)
		}
		return true
	})
}
