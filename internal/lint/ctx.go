package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// ctxRule enforces context discipline:
//
//   - context.Background()/context.TODO() may appear only in package
//     main (cmd wiring, bench) — everywhere else a context must be
//     threaded from the caller so cancellation propagates through the
//     whole pipeline;
//   - in the packages listed in Config.IOCtx, an exported function
//     that directly performs read-side I/O (opening files, dialing)
//     must accept a context.Context as its first parameter.
func ctxRule(m *Module, cfg *Config) []Finding {
	var out []Finding
	for _, p := range m.Pkgs {
		if !p.Main {
			out = append(out, ctxBackgroundFindings(m, p)...)
		}
		if cfg.inList(cfg.IOCtx, p.RelPath) {
			out = append(out, ioCtxFindings(m, p)...)
		}
	}
	return out
}

func ctxBackgroundFindings(m *Module, p *Package) []Finding {
	var out []Finding
	inspectFiles(p, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeOf(p.Info, call)
		if pkgFunc(f, "context", "Background") || pkgFunc(f, "context", "TODO") {
			out = append(out, m.finding(call.Pos(), RuleCtx,
				fmt.Sprintf("context.%s in package %s; thread a context.Context from the caller instead", f.Name(), p.RelName())))
		}
		return true
	})
	return out
}

// ioFuncs are the read-side entry points whose presence in an exported
// function's body demands a ctx parameter. Server starters
// (net.Listen) are deliberately absent: their lifetime is managed by a
// returned closer.
var ioFuncs = map[string]bool{
	"os.Open":         true,
	"os.OpenFile":     true,
	"os.ReadFile":     true,
	"os.ReadDir":      true,
	"net.Dial":        true,
	"net.DialTimeout": true,
}

func ioCtxFindings(m *Module, p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			def, _ := p.Info.Defs[fn.Name].(*types.Func)
			if def == nil {
				continue
			}
			sig, _ := def.Type().(*types.Signature)
			if firstParamIsContext(sig) {
				continue
			}
			if io := firstIOCall(p, fn); io != "" {
				out = append(out, m.finding(fn.Pos(), RuleCtx,
					fmt.Sprintf("exported %s performs I/O (%s) but does not take a context.Context first parameter", fn.Name.Name, io)))
			}
		}
	}
	return out
}

func firstIOCall(p *Package, fn *ast.FuncDecl) string {
	found := ""
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeOf(p.Info, call)
		if f == nil || f.Pkg() == nil {
			return true
		}
		if sig, _ := f.Type().(*types.Signature); sig == nil || sig.Recv() != nil {
			return true
		}
		if name := f.Pkg().Path() + "." + f.Name(); ioFuncs[name] {
			found = name
		}
		return true
	})
	return found
}
