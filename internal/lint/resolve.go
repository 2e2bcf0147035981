package lint

import (
	"go/ast"
	"go/types"
)

// calleeOf resolves a call expression to the *types.Func it invokes, or
// nil for builtins, conversions, and calls through function values.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// pkgFunc reports whether f is the package-level function pkgPath.name.
func pkgFunc(f *types.Func, pkgPath, name string) bool {
	if f == nil || f.Pkg() == nil || f.Name() != name || f.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// isAppend reports whether the call is the append builtin.
func isAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// namedTypeOf dereferences pointers and returns the fully qualified
// name ("pkgpath.Type") of t's named type, or "".
func namedTypeOf(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		// A *Named whose underlying is a pointer was handled above;
		// aliases resolve through Unalias.
		named, ok = types.Unalias(t).(*types.Named)
		if !ok {
			return ""
		}
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// derefNamed resolves t through one pointer indirection and returns the
// qualified name of the named type it points at (or is), or "".
func derefNamed(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		if obj := named.Obj(); obj != nil && obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	}
	return ""
}

// walkStack traverses root in source order, invoking visit with each
// node and the stack of its ancestors within root (outermost first, the
// immediate parent last). The pin-release and hotpath-alloc passes need
// ancestor context — "is this use under a go statement?", "is this
// literal a direct call argument?" — that plain ast.Inspect cannot
// provide.
func walkStack(root ast.Node, visit func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		visit(n, stack)
		stack = append(stack, n)
		return true
	})
}

// parentNode returns the nearest ancestor on the stack that is not a
// ParenExpr, or nil.
func parentNode(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			continue
		}
		return stack[i]
	}
	return nil
}

// stackHasGo reports whether any ancestor on the stack is a go
// statement.
func stackHasGo(stack []ast.Node) bool {
	for _, n := range stack {
		if _, ok := n.(*ast.GoStmt); ok {
			return true
		}
	}
	return false
}

// isPkgLevelVar reports whether obj is a package-scoped variable of p.
func isPkgLevelVar(p *Package, obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && p.Pkg != nil && v.Parent() == p.Pkg.Scope()
}

// firstParamIsContext reports whether the signature's first parameter
// is context.Context.
func firstParamIsContext(sig *types.Signature) bool {
	if sig == nil || sig.Params().Len() == 0 {
		return false
	}
	return namedTypeOf(sig.Params().At(0).Type()) == "context.Context"
}
