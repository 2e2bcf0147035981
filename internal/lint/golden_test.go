package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current findings")

// fixtureConfig returns the rule table for one testdata fixture. Each
// fixture is a tiny self-contained module exercising one rule, loaded
// through LoadModule exactly like the real repository.
func fixtureConfig(fixture, modPath string) *Config {
	switch fixture {
	case "determinism", "ignore":
		return &Config{BuildPath: []string{"build"}}
	case "ctxrule":
		return &Config{IOCtx: []string{"lib"}}
	case "layering":
		return &Config{Layering: map[string][]string{
			"parser": {"store"},
			"util":   {"parser", "store"},
		}}
	case "immutability":
		return &Config{Immutable: map[string][]string{
			modPath + "/core.Dataset":  {"core"},
			modPath + "/core.Snapshot": {"core"},
		}}
	case "obsconv":
		return &Config{Obs: ObsConfig{
			RegistryType: modPath + "/obs.Registry",
			LabelFunc:    modPath + "/obs.Label",
			Methods:      []string{"Counter", "Gauge", "Histogram", "GaugeFunc"},
		}}
	case "pinrelease":
		return &Config{Pin: PinConfig{
			StoreType: modPath + "/store.Store",
			Method:    "Acquire",
		}}
	case "unsafeconfine":
		return &Config{Unsafe: UnsafeConfig{
			AllowUnsafe:  []string{"view/view.go"},
			AllowSyscall: []string{"view/view.go"},
			AliasAccessors: map[string][]string{
				modPath + "/view.Data": {"RecordAt"},
			},
			AliasExempt: []string{"view"},
		}}
	case "hotpath":
		return &Config{}
	}
	return &Config{}
}

func TestGoldenFixtures(t *testing.T) {
	fixtures, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range fixtures {
		if !fx.IsDir() {
			continue
		}
		name := fx.Name()
		t.Run(name, func(t *testing.T) {
			m, err := LoadModule(filepath.Join("testdata", "src", name))
			if err != nil {
				t.Fatalf("LoadModule: %v", err)
			}
			for _, p := range m.Pkgs {
				for _, te := range p.TypeErrors {
					t.Errorf("fixture type error in %s: %v", p.RelName(), te)
				}
			}
			findings := Run(m, fixtureConfig(name, m.Path))
			var b strings.Builder
			for _, f := range findings {
				b.WriteString(f.String())
				b.WriteString("\n")
			}
			got := b.String()

			goldenPath := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings mismatch for %s\n--- got ---\n%s--- want ---\n%s", name, got, want)
			}
		})
	}
}

// TestFindingsSorted pins the output ordering contract: findings come
// back sorted by file, then line, then rule, so golden files and CI
// logs are stable across runs.
func TestFindingsSorted(t *testing.T) {
	m, err := LoadModule(filepath.Join("testdata", "src", "determinism"))
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(m, fixtureConfig("determinism", m.Path))
	if len(findings) < 2 {
		t.Fatalf("expected multiple findings, got %d", len(findings))
	}
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1], findings[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Errorf("findings out of order: %q before %q", a, b)
		}
	}
}

// TestRunDeterministic pins the byte-for-byte determinism contract:
// the full suite run twice over the same module — and over a freshly
// reloaded module — renders identical findings output.
func TestRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("loads every fixture twice; skipped in -short")
	}
	render := func(fs []Finding) string {
		var b strings.Builder
		for _, f := range fs {
			b.WriteString(f.String())
			b.WriteString("\n")
		}
		return b.String()
	}
	fixtures, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range fixtures {
		if !fx.IsDir() {
			continue
		}
		name := fx.Name()
		t.Run(name, func(t *testing.T) {
			m, err := LoadModule(filepath.Join("testdata", "src", name))
			if err != nil {
				t.Fatalf("LoadModule: %v", err)
			}
			cfg := fixtureConfig(name, m.Path)
			first := render(Run(m, cfg))
			second := render(Run(m, cfg))
			if first != second {
				t.Errorf("same-module reruns differ\n--- first ---\n%s--- second ---\n%s", first, second)
			}
		})
	}
	// A fresh load must also reproduce the same bytes: positions and
	// package iteration order may not depend on load-time state.
	t.Run("reload", func(t *testing.T) {
		m1, err := LoadModule(filepath.Join("testdata", "src", "pinrelease"))
		if err != nil {
			t.Fatal(err)
		}
		m2, err := LoadModule(filepath.Join("testdata", "src", "pinrelease"))
		if err != nil {
			t.Fatal(err)
		}
		out1 := render(Run(m1, fixtureConfig("pinrelease", m1.Path)))
		out2 := render(Run(m2, fixtureConfig("pinrelease", m2.Path)))
		if out1 == "" {
			t.Fatal("pinrelease fixture produced no findings")
		}
		if out1 != out2 {
			t.Errorf("reload reruns differ\n--- first ---\n%s--- second ---\n%s", out1, out2)
		}
	})
}

// TestRepoIsClean runs the full default rule table over the repository
// itself — the same invocation `make lint` performs. The real module
// must produce zero findings; any new violation fails this test (and
// therefore `make verify`) before it fails CI. It also pins the
// //p2o:hotpath coverage: the serve-path entry points must stay
// annotated so hotpath-alloc keeps watching them.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	m, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	findings := Run(m, DefaultConfig(m.Path))
	for _, f := range findings {
		t.Errorf("repo finding: %s", f)
	}

	hot := HotpathFuncs(m)
	if len(hot) < 10 {
		t.Errorf("expected at least 10 //p2o:hotpath functions, got %d: %v", len(hot), hot)
	}
	marked := make(map[string]bool, len(hot))
	for _, name := range hot {
		marked[name] = true
	}
	for _, want := range []string{
		"internal/lpm.Index.Lookup",
		"internal/lpm.Index.Match",
		"internal/lpm.Index.CoveringInto",
		"internal/lpm.Index.WalkCovered",
		"internal/httpd.appendBulkLine",
		"internal/whoisd.Server.answer",
		"internal/daemon.Resolve",
		"internal/obs.QueryTelemetry.Finish",
		"(root).Dataset.Lookup",
		"(root).Dataset.LookupAddr",
	} {
		if !marked[want] {
			t.Errorf("serve-path function %s lost its //p2o:hotpath annotation", want)
		}
	}
}
