package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	// ImportPath is the full import path; RelPath is the path relative
	// to the module root ("" for the root package).
	ImportPath string
	RelPath    string
	Dir        string
	Files      []*ast.File
	// Main reports a package main (command wiring).
	Main bool
	// Pkg and Info are the go/types results. Type checking is
	// best-effort: on errors the rules run over whatever resolved, and
	// the errors are kept for -v diagnostics.
	Pkg        *types.Package
	Info       *types.Info
	TypeErrors []error
}

// RelName is the package's display name in findings.
func (p *Package) RelName() string {
	if p.RelPath == "" {
		return "(root)"
	}
	return p.RelPath
}

// Module is a fully parsed and type-checked module.
type Module struct {
	Path string // module path from go.mod
	Root string // absolute root directory
	Fset *token.FileSet
	// Pkgs is in dependency (topological) order.
	Pkgs   []*Package
	byPath map[string]*Package
}

// sharedFset and stdImporter are shared by every LoadModule call, so the
// standard library is type-checked from source once per process and
// each later load reuses the importer's cached packages. The source
// importer is not safe for concurrent use, and so neither is
// LoadModule.
var (
	sharedFset  = token.NewFileSet()
	stdImporter = importer.ForCompiler(sharedFset, "source", nil)
)

// LoadModule discovers, parses, and type-checks every non-test package
// under root (skipping testdata, vendor, and hidden directories) the
// same way for the real module and for fixture modules. Standard
// library dependencies are type-checked from $GOROOT source via the
// stdlib "source" importer, so no export data, network access, or
// x/tools dependency is needed.
func LoadModule(root string) (*Module, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(absRoot)
	if err != nil {
		return nil, err
	}
	// The source importer resolves stdlib packages through go/build;
	// with cgo off it picks the pure-Go variants (net, os/user), which
	// type-check without invoking the cgo tool.
	build.Default.CgoEnabled = false

	m := &Module{Path: modPath, Root: absRoot, Fset: sharedFset, byPath: map[string]*Package{}}
	raw, err := m.parseTree()
	if err != nil {
		return nil, err
	}
	order, err := toposort(raw)
	if err != nil {
		return nil, err
	}
	imp := &moduleImporter{std: stdImporter, mod: map[string]*types.Package{}}
	for _, rp := range order {
		p := &Package{
			ImportPath: rp.importPath,
			RelPath:    rp.rel,
			Dir:        rp.dir,
			Files:      rp.files,
			Main:       rp.name == "main",
			Info: &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
				Implicits:  map[ast.Node]types.Object{},
			},
		}
		conf := types.Config{
			Importer:                 imp,
			Error:                    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
			DisableUnusedImportCheck: true,
		}
		tpkg, _ := conf.Check(rp.importPath, m.Fset, rp.files, p.Info)
		p.Pkg = tpkg
		if tpkg != nil {
			imp.mod[rp.importPath] = tpkg
		}
		m.Pkgs = append(m.Pkgs, p)
		m.byPath[rp.importPath] = p
	}
	return m, nil
}

// Rel converts a module-internal import path to its relative form, and
// reports whether the path is inside the module at all.
func (m *Module) Rel(importPath string) (string, bool) {
	if importPath == m.Path {
		return "", true
	}
	if rest, ok := strings.CutPrefix(importPath, m.Path+"/"); ok {
		return rest, true
	}
	return "", false
}

// modulePath extracts the module directive from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// rawPkg is a parsed-but-not-yet-type-checked package directory.
type rawPkg struct {
	rel        string
	importPath string
	dir        string
	name       string
	files      []*ast.File
	deps       []string // module-internal import paths
}

// parseTree walks the module and parses every non-test Go file,
// grouping files by directory. File positions are recorded relative to
// the module root so findings print stable, clickable paths.
func (m *Module) parseTree() (map[string]*rawPkg, error) {
	raw := map[string]*rawPkg{}
	err := filepath.WalkDir(m.Root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != m.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return fs.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		relFile, err := filepath.Rel(m.Root, path)
		if err != nil {
			return err
		}
		relFile = filepath.ToSlash(relFile)
		file, err := parser.ParseFile(m.Fset, relFile, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("lint: parse %s: %w", relFile, err)
		}
		relDir := filepath.ToSlash(filepath.Dir(relFile))
		if relDir == "." {
			relDir = ""
		}
		rp := raw[relDir]
		if rp == nil {
			ip := m.Path
			if relDir != "" {
				ip = m.Path + "/" + relDir
			}
			rp = &rawPkg{rel: relDir, importPath: ip, dir: filepath.Dir(path), name: file.Name.Name}
			raw[relDir] = rp
		}
		if file.Name.Name != rp.name {
			return fmt.Errorf("lint: %s: mixed package names %q and %q", relDir, rp.name, file.Name.Name)
		}
		rp.files = append(rp.files, file)
		for _, imp := range file.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if _, ok := m.Rel(ip); ok {
				rp.deps = append(rp.deps, ip)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("lint: no Go packages under %s", m.Root)
	}
	// Deterministic file order inside each package.
	for _, rp := range raw {
		sort.Slice(rp.files, func(i, j int) bool {
			return m.Fset.Position(rp.files[i].Pos()).Filename < m.Fset.Position(rp.files[j].Pos()).Filename
		})
	}
	return raw, nil
}

// toposort orders packages so that every dependency is type-checked
// before its importers.
func toposort(raw map[string]*rawPkg) ([]*rawPkg, error) {
	byImport := map[string]*rawPkg{}
	rels := make([]string, 0, len(raw))
	for rel, rp := range raw {
		byImport[rp.importPath] = rp
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := map[string]int{}
	var order []*rawPkg
	var visit func(rp *rawPkg, chain []string) error
	visit = func(rp *rawPkg, chain []string) error {
		switch state[rp.importPath] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("lint: import cycle: %s", strings.Join(append(chain, rp.importPath), " -> "))
		}
		state[rp.importPath] = gray
		deps := append([]string(nil), rp.deps...)
		sort.Strings(deps)
		for _, dep := range deps {
			if next, ok := byImport[dep]; ok {
				if err := visit(next, append(chain, rp.importPath)); err != nil {
					return err
				}
			}
		}
		state[rp.importPath] = black
		order = append(order, rp)
		return nil
	}
	for _, rel := range rels {
		if err := visit(raw[rel], nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter serves already-checked module packages and delegates
// everything else (the standard library) to the source importer.
type moduleImporter struct {
	std types.Importer
	mod map[string]*types.Package
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := mi.mod[path]; ok {
		return p, nil
	}
	return mi.std.Import(path)
}

func (mi *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := mi.mod[path]; ok {
		return p, nil
	}
	if from, ok := mi.std.(types.ImporterFrom); ok {
		return from.ImportFrom(path, dir, mode)
	}
	return mi.std.Import(path)
}
