package lint

import (
	"fmt"
	"go/ast"
	"strings"
)

// layeringRule enforces the import DAG ARCHITECTURE.md documents: leaf
// utilities import nothing module-internal, corpus parsers sit below
// the serving layer, and the root build package never reaches up into
// store or the daemons. The table is a denylist: an entry forbids the
// exact package and everything under it.
func layeringRule(m *Module, cfg *Config) []Finding {
	var out []Finding
	for _, p := range m.Pkgs {
		for _, file := range p.Files {
			for _, spec := range file.Imports {
				out = append(out, checkImport(m, p, spec, cfg.Layering[p.RelPath])...)
			}
		}
	}
	return out
}

func checkImport(m *Module, p *Package, spec *ast.ImportSpec, denied []string) []Finding {
	ipath := strings.Trim(spec.Path.Value, `"`)
	rel, ok := m.Rel(ipath)
	if !ok {
		return nil // outside the module; stdlib is always allowed
	}
	for _, d := range denied {
		match := rel == d || (d != "" && strings.HasPrefix(rel, d+"/"))
		if d == "" {
			match = rel == "" // denying the root package itself
		}
		if match {
			name := rel
			if name == "" {
				name = "the root package"
			}
			return []Finding{m.finding(spec.Pos(), RuleLayering,
				fmt.Sprintf("package %s must not import %s (import DAG in ARCHITECTURE.md)", p.RelName(), name))}
		}
	}
	return nil
}
