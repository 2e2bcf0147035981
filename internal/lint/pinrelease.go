package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// pinReleaseRule enforces the snapshot pin lifecycle around the store's
// Acquire API: a handler that pins a snapshot must release it on every
// exit, and the pinned snapshot may not leak into state that outlives
// the request. A leaked pin keeps a swapped-out snapshot's mmap alive
// forever; a leaked alias dangles once the mapping closes. The runtime
// backstop is the mapping-lifetime e2e test; this pass catches the bug
// at `make verify` time.
//
// The release half accepts exactly one shape, the one every handler
// writes:
//
//	snap, release := st.Acquire()
//	defer release()
//
// with release used nowhere else in the function. A defer installed by
// the very next statement runs on every exit, so the shape needs no
// path analysis; anything else (an explicit release per path, a
// release handed to a closure or a closer) needs an explicit
// //p2olint:ignore with a reason.
func pinReleaseRule(m *Module, cfg *Config) []Finding {
	if cfg.Pin.StoreType == "" || cfg.Pin.Method == "" {
		return nil
	}
	var out []Finding
	for _, p := range m.Pkgs {
		if p.Info == nil {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				out = append(out, checkPinSites(m, p, fn, cfg)...)
			}
		}
	}
	return out
}

// isPinAcquire reports whether call invokes the configured pinning
// method (cfg.Pin.Method on cfg.Pin.StoreType).
func isPinAcquire(p *Package, call *ast.CallExpr, cfg *Config) bool {
	f := calleeOf(p.Info, call)
	if f == nil || f.Name() != cfg.Pin.Method {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return namedTypeOf(sig.Recv().Type()) == cfg.Pin.StoreType
}

// checkPinSites audits every Acquire call inside fn.
func checkPinSites(m *Module, p *Package, fn *ast.FuncDecl, cfg *Config) []Finding {
	var out []Finding
	walkStack(fn.Body, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isPinAcquire(p, call, cfg) {
			return
		}
		as, ok := parentNode(stack).(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 2 {
			out = append(out, m.finding(call.Pos(), RulePin, fmt.Sprintf(
				"result of %s must be captured as (snapshot, release); the pin cannot be released otherwise",
				cfg.Pin.Method)))
			return
		}
		out = append(out, checkOnePin(m, p, fn, as, nextStmt(stack, as), cfg)...)
	})
	return out
}

// nextStmt returns the statement that follows as in its enclosing
// statement list, or nil when as is the last one or sits outside a list
// (an if or switch init).
func nextStmt(stack []ast.Node, as *ast.AssignStmt) ast.Stmt {
	var list []ast.Stmt
	switch b := stack[slices.Index(stack, ast.Node(as))-1].(type) {
	case *ast.BlockStmt:
		list = b.List
	case *ast.CaseClause:
		list = b.Body
	case *ast.CommClause:
		list = b.Body
	}
	if i := slices.Index(list, ast.Stmt(as)); i >= 0 && i+1 < len(list) {
		return list[i+1]
	}
	return nil
}

// checkOnePin audits one `snap, release := store.Acquire()` site whose
// following statement is next.
func checkOnePin(m *Module, p *Package, fn *ast.FuncDecl, as *ast.AssignStmt, next ast.Stmt, cfg *Config) []Finding {
	snapID, ok1 := as.Lhs[0].(*ast.Ident)
	relID, ok2 := as.Lhs[1].(*ast.Ident)
	if !ok1 || !ok2 || as.Tok != token.DEFINE {
		return []Finding{m.finding(as.Pos(), RulePin, fmt.Sprintf(
			"results of %s must be declared with := into plain variables, not assigned to existing ones, fields or elements",
			cfg.Pin.Method))}
	}
	if relID.Name == "_" {
		return []Finding{m.finding(relID.Pos(), RulePin, fmt.Sprintf(
			"release func of %s is discarded; every pin needs a matching release on all exits",
			cfg.Pin.Method))}
	}
	relObj := p.Info.ObjectOf(relID)
	if relObj == nil {
		return nil // unresolved (type error); best-effort like every pass
	}
	var snapObj types.Object
	if snapID.Name != "_" {
		snapObj = p.Info.ObjectOf(snapID)
	}

	var out []Finding
	var deferID *ast.Ident
	if d, ok := next.(*ast.DeferStmt); ok && len(d.Call.Args) == 0 {
		deferID, _ = ast.Unparen(d.Call.Fun).(*ast.Ident)
	}
	deferred := deferID != nil && p.Info.ObjectOf(deferID) == relObj
	if !deferred {
		out = append(out, m.finding(as.Pos(), RulePin, fmt.Sprintf(
			"the statement after %s must be `defer %s()`; no other shape is checked to release the snapshot pin (and its mmap) on every exit",
			cfg.Pin.Method, relID.Name)))
	}
	walkStack(fn.Body, func(n ast.Node, stack []ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok || id == relID || id == snapID {
			return
		}
		switch obj := p.Info.ObjectOf(id); {
		case obj == relObj && deferred && id != deferID:
			// Past a missing defer every further use is a cascade of
			// the one finding above.
			out = append(out, m.finding(id.Pos(), RulePin, fmt.Sprintf(
				"%s is used again after `defer %s()`; the defer must be the pin's only release",
				relID.Name, relID.Name)))
		case obj == snapObj && snapObj != nil:
			out = append(out, snapshotEscapes(m, p, id, stack)...)
		}
	})
	return out
}

// snapshotEscapes flags uses that move the pinned snapshot into state
// outliving the request: struct fields, globals, composite literals,
// channels, goroutines. Reads (selectors, call arguments, returns) are
// the normal serving shape and pass.
func snapshotEscapes(m *Module, p *Package, id *ast.Ident, stack []ast.Node) []Finding {
	const why = "; a pin is request-scoped (release governs the mapping lifetime)"
	sink := ""
	switch parent := parentNode(stack).(type) {
	case *ast.AssignStmt:
		sink = sinkName(p, assignLHS(parent, id))
	case *ast.KeyValueExpr, *ast.CompositeLit:
		sink = "a composite literal"
	case *ast.SendStmt:
		sink = "a channel send"
	}
	if stackHasGo(stack) {
		sink = "a goroutine"
	}
	if sink == "" {
		return nil
	}
	return []Finding{m.finding(id.Pos(), RulePin, "pinned snapshot escapes into "+sink+why)}
}

// assignLHS matches id's RHS slot to its LHS counterpart; on a shape
// mismatch (tuple assignment) it falls back to the first LHS.
func assignLHS(as *ast.AssignStmt, id *ast.Ident) ast.Expr {
	lhs := as.Lhs[0]
	for i, r := range as.Rhs {
		if ast.Unparen(r) == id && i < len(as.Lhs) {
			lhs = as.Lhs[i]
		}
	}
	return lhs
}

// sinkName names the long-lived sink lhs designates, or "" for an
// ordinary local.
func sinkName(p *Package, lhs ast.Expr) string {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if x, ok := l.X.(*ast.Ident); ok {
			if _, isPkg := p.Info.ObjectOf(x).(*types.PkgName); isPkg {
				return "a package-level variable"
			}
		}
		return "a struct field"
	case *ast.IndexExpr:
		return "a map or slice element"
	case *ast.Ident:
		if isPkgLevelVar(p, p.Info.ObjectOf(l)) {
			return "a package-level variable"
		}
	}
	return ""
}
