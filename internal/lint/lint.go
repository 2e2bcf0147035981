// Package lint implements p2o-lint, the repository's custom static
// analyzer. It machine-checks the contracts the compiler cannot see —
// the ones ARCHITECTURE.md states in prose:
//
//   - determinism: build-path packages must produce byte-identical
//     output at any worker count, so they may not consult wall-clock
//     time or the global math/rand source, and may not emit output (or
//     accumulate slices that become output) in map-iteration order;
//   - ctx-discipline: context.Background()/context.TODO() belong in
//     main-adjacent wiring only, and exported functions that perform
//     I/O must accept a context.Context as their first parameter;
//   - layering: the import DAG documented in ARCHITECTURE.md (corpus
//     parsers below the serving layer, leaf utilities below everything);
//   - immutability: Dataset and store.Snapshot are frozen once built —
//     only their owning packages may assign to their fields;
//   - obs-conventions: metric names are snake_case string literals,
//     each registered at a single call site;
//   - pin-release: every store.Acquire() is written
//     `snap, release := st.Acquire()` with `defer release()` as the
//     next statement and no other use of release, and the pinned
//     snapshot does not escape into struct fields, globals, or
//     goroutines;
//   - unsafe-confinement: unsafe and syscall imports are restricted to
//     the snapshot-view internals, and blob-aliasing accessor results
//     (RecordAt and friends) are never stored into long-lived sinks;
//   - hotpath-alloc: functions annotated //p2o:hotpath are free of
//     allocation-introducing constructs (fmt.Sprintf/Errorf,
//     string↔[]byte copies, escaping closures, interface boxing,
//     append on non-preallocated locals).
//
// The analyzer is built entirely on the standard library (go/parser,
// go/ast, go/types); it deliberately avoids golang.org/x/tools so it
// runs in offline builds. Findings print as "file:line: rule: message"
// and any finding makes cmd/p2o-lint exit non-zero.
//
// A finding can be suppressed with a directive comment on the same
// line or the line above:
//
//	//p2olint:ignore <rule> <reason>
//
// The reason is mandatory; an ignore without one is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Finding is one rule violation, addressed by module-root-relative file
// path and line.
type Finding struct {
	File string
	Line int
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.File, f.Line, f.Rule, f.Msg)
}

// Rule names, as they appear in findings and ignore directives.
const (
	RuleDeterminism  = "determinism"
	RuleCtx          = "ctx-discipline"
	RuleLayering     = "layering"
	RuleImmutability = "immutability"
	RuleObs          = "obs-conventions"
	RulePin          = "pin-release"
	RuleUnsafe       = "unsafe-confinement"
	RuleHotpath      = "hotpath-alloc"
	RuleIgnore       = "ignore" // misuse of the ignore directive itself
)

// ObsConfig locates the metrics API the obs-conventions rule audits.
type ObsConfig struct {
	// RegistryType is the fully qualified registry type, e.g.
	// "example.com/mod/internal/obs.Registry".
	RegistryType string
	// LabelFunc is the fully qualified label-rendering helper whose
	// first argument is the base metric name.
	LabelFunc string
	// Methods are the Registry methods that register an instrument.
	Methods []string
}

// PinConfig locates the snapshot-pinning API the pin-release rule
// audits. A zero StoreType or Method disables the rule.
type PinConfig struct {
	// StoreType is the fully qualified store type, e.g.
	// "example.com/mod/internal/store.Store".
	StoreType string
	// Method is the pinning method on StoreType returning
	// (snapshot, release func).
	Method string
}

// UnsafeConfig confines raw-memory machinery for the unsafe-confinement
// rule. A fully zero config disables the rule; an empty-but-non-nil
// allowlist means "no file at all".
type UnsafeConfig struct {
	// AllowUnsafe lists module-relative files permitted to import
	// unsafe; AllowSyscall the same for syscall.
	AllowUnsafe  []string
	AllowSyscall []string
	// AliasAccessors maps a fully qualified type name to the methods
	// whose results alias a snapshot-backed buffer (blob views). Their
	// results must not be stored into long-lived sinks.
	AliasAccessors map[string][]string
	// AliasExempt lists packages (relative paths) that implement the
	// views themselves and may store aliases as they see fit.
	AliasExempt []string
}

// Config is the per-package rule table. Package identity is the import
// path relative to the module root ("" is the root package,
// "internal/whois" a subpackage), which keeps fixture modules and the
// real module configurable with the same table shape.
type Config struct {
	// BuildPath lists packages whose output must be byte-deterministic;
	// the determinism rule applies only here.
	BuildPath []string
	// IOCtx lists packages where exported functions that directly
	// perform read-side I/O (os.Open/ReadFile/ReadDir, net.Dial...)
	// must take a context.Context first parameter. Server starters
	// (net.Listen) are exempt by design: their lifetime is managed by
	// a returned closer, not a context.
	IOCtx []string
	// Layering maps a package to import prefixes it must not depend
	// on. An entry denies the exact package and everything under it.
	Layering map[string][]string
	// Immutable maps fully qualified type names ("pkgpath.Type") to
	// the packages (relative paths) allowed to assign to their fields,
	// elements, or map entries.
	Immutable map[string][]string
	// Obs configures the obs-conventions rule; a zero RegistryType
	// disables it.
	Obs ObsConfig
	// Pin configures the pin-release rule.
	Pin PinConfig
	// Unsafe configures the unsafe-confinement rule. The hotpath-alloc
	// rule needs no table: it triggers on //p2o:hotpath annotations.
	Unsafe UnsafeConfig
}

func (c *Config) inList(list []string, rel string) bool {
	for _, e := range list {
		if e == rel {
			return true
		}
	}
	return false
}

// Run applies every configured rule to the module and returns the
// surviving findings sorted by file, line, and rule. Ignore directives
// are honored here; a directive without a reason becomes a finding of
// its own.
func Run(m *Module, cfg *Config) []Finding {
	var fs []Finding
	fs = append(fs, determinismRule(m, cfg)...)
	fs = append(fs, ctxRule(m, cfg)...)
	fs = append(fs, layeringRule(m, cfg)...)
	fs = append(fs, immutabilityRule(m, cfg)...)
	fs = append(fs, obsRule(m, cfg)...)
	fs = append(fs, pinReleaseRule(m, cfg)...)
	fs = append(fs, unsafeConfineRule(m, cfg)...)
	fs = append(fs, hotpathRule(m, cfg)...)
	fs = applyIgnores(m, fs)
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].File != fs[j].File {
			return fs[i].File < fs[j].File
		}
		if fs[i].Line != fs[j].Line {
			return fs[i].Line < fs[j].Line
		}
		if fs[i].Rule != fs[j].Rule {
			return fs[i].Rule < fs[j].Rule
		}
		return fs[i].Msg < fs[j].Msg
	})
	return fs
}

// finding builds a Finding from a token position.
func (m *Module) finding(pos token.Pos, rule, msg string) Finding {
	p := m.Fset.Position(pos)
	return Finding{File: p.Filename, Line: p.Line, Rule: rule, Msg: msg}
}

// ignoreDirective is one parsed //p2olint:ignore comment.
type ignoreDirective struct {
	file   string
	line   int
	rule   string
	reason string
	pos    token.Pos
}

const ignorePrefix = "//p2olint:ignore"

// parseIgnoreDirective parses one comment's text as an ignore
// directive. ok reports whether the comment is a directive at all: the
// exact //p2olint:ignore prefix followed by end-of-comment or
// whitespace (so //p2olint:ignorexyz is an ordinary comment). rule and
// reason may come back empty — applyIgnores turns those into findings
// rather than silently honoring a malformed directive.
func parseIgnoreDirective(comment string) (rule, reason string, ok bool) {
	rest, found := strings.CutPrefix(comment, ignorePrefix)
	if !found {
		return "", "", false
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", "", false
	}
	rest = strings.TrimSpace(rest)
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		return rest[:i], strings.TrimSpace(rest[i+1:]), true
	}
	return rest, "", true
}

// collectIgnores parses every ignore directive in the module.
func collectIgnores(m *Module) []ignoreDirective {
	var out []ignoreDirective
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rule, reason, ok := parseIgnoreDirective(c.Text)
					if !ok {
						continue
					}
					pos := m.Fset.Position(c.Pos())
					out = append(out, ignoreDirective{
						file: pos.Filename, line: pos.Line, pos: c.Pos(),
						rule: rule, reason: reason,
					})
				}
			}
		}
	}
	return out
}

// applyIgnores drops findings suppressed by a well-formed directive on
// the same line or the line above, and reports malformed directives.
func applyIgnores(m *Module, fs []Finding) []Finding {
	dirs := collectIgnores(m)
	suppressed := func(f Finding) bool {
		for _, d := range dirs {
			if d.file != f.File || d.rule != f.Rule || d.reason == "" {
				continue
			}
			if d.line == f.Line || d.line == f.Line-1 {
				return true
			}
		}
		return false
	}
	var out []Finding
	for _, f := range fs {
		if !suppressed(f) {
			out = append(out, f)
		}
	}
	for _, d := range dirs {
		switch {
		case d.rule == "":
			out = append(out, m.finding(d.pos, RuleIgnore,
				"ignore directive names no rule; use //p2olint:ignore <rule> <reason>"))
		case d.reason == "":
			out = append(out, m.finding(d.pos, RuleIgnore,
				fmt.Sprintf("ignore directive for %q has no reason; a justification is mandatory", d.rule)))
		}
	}
	return out
}

var snakeRe = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// isSnake reports whether s is a valid snake_case identifier.
func isSnake(s string) bool { return snakeRe.MatchString(s) }

// inspectFiles walks every file of the package.
func inspectFiles(p *Package, fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}
