package analysis

import (
	"go/ast"
	"go/types"
)

// funcDecls indexes the package's function and method declarations by their
// types.Func object, so analyzers can chase same-package calls.
func funcDecls(pass *Pass) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				out[obj] = fd
			}
		}
	}
	return out
}

// calleeFunc resolves the called function object of a call expression, if it
// is a statically known func or method.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// builtinName returns the name of the builtin a call invokes ("append",
// "make", "delete", ...), or "" for anything else. Builtins resolve to
// *types.Builtin, not *types.Func, so calleeFunc misses them.
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, ok := info.Uses[id].(*types.Builtin); ok {
		return id.Name
	}
	return ""
}

// isConversion reports whether a call expression is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// isPackageVar reports whether obj is a package-level variable.
func isPackageVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// recvIdent returns the receiver identifier of a method declaration, nil for
// plain functions or anonymous receivers.
func recvIdent(fd *ast.FuncDecl) *ast.Ident {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return fd.Recv.List[0].Names[0]
}

// namedOf unwraps pointers and returns the named type of t, if any.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// typeName returns the declared name of the (possibly pointer-wrapped) named
// type of t, or "".
func typeName(t types.Type) string {
	if n := namedOf(t); n != nil {
		return n.Obj().Name()
	}
	return ""
}

// isExported reports whether a function declaration is callable from outside
// the package: an exported function, or an exported method on an exported
// named receiver type.
func isExported(pass *Pass, fd *ast.FuncDecl) bool {
	if !fd.Name.IsExported() {
		return false
	}
	if fd.Recv == nil {
		return true
	}
	if len(fd.Recv.List) == 0 {
		return false
	}
	t := pass.Info.TypeOf(fd.Recv.List[0].Type)
	n := namedOf(t)
	return n != nil && n.Obj().Exported()
}

// containsRecover reports whether the AST node contains a call to the
// built-in recover.
func containsRecover(info *types.Info, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "recover" {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin || info.Uses[id] == nil {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
