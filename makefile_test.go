package prefix2org

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakefileGateShape holds the gate to the tree it gates: every
// prerequisite a Makefile rule names — ci's and verify's among them, and
// the .PHONY list — is a target the Makefile defines, every recipe that
// runs `go test` passes $(GOTESTFLAGS), so a test that blocks fails the
// gate on its -timeout instead of hanging it, and fuzz-short runs
// exactly the Fuzz functions the module's tests define, each in its own
// package directory.
func TestMakefileGateShape(t *testing.T) {
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	rule := regexp.MustCompile(`^([A-Za-z0-9_.-]+):([^=]*)$`)
	fuzzLine := regexp.MustCompile(`-fuzz=(\w+) .* (\S+)$`)
	prereqs := map[string][]string{} // by target; a key for every rule
	gated := map[string]bool{}       // "dir FuzzName" for each fuzz-short line
	target := ""
	for n, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "\t") {
			if strings.Contains(line, "$(GO) test ") && !strings.Contains(line, "$(GOTESTFLAGS)") {
				t.Errorf("Makefile:%d: a go test recipe without $(GOTESTFLAGS): %s", n+1, strings.TrimSpace(line))
			}
			if m := fuzzLine.FindStringSubmatch(line); m != nil && target == "fuzz-short" {
				gated[filepath.Clean(m[2])+" "+m[1]] = true
			}
			continue
		}
		if m := rule.FindStringSubmatch(line); m != nil {
			target = m[1]
			prereqs[m[1]] = append(prereqs[m[1]], strings.Fields(m[2])...)
		}
	}
	if len(prereqs["ci"]) == 0 || len(prereqs["verify"]) == 0 {
		t.Fatalf("no prerequisites found for ci (%v) or verify (%v): the Makefile is not being read as written", prereqs["ci"], prereqs["verify"])
	}
	for target, ps := range prereqs {
		for _, p := range ps {
			if _, defined := prereqs[p]; !defined {
				t.Errorf("Makefile: %s depends on %s, which no rule defines", target, p)
			}
		}
	}

	defined := fuzzTargets(t)
	if len(defined) == 0 || len(gated) == 0 {
		t.Fatalf("found %d Fuzz functions and %d fuzz-short lines: the tree or the Makefile is not being read as written", len(defined), len(gated))
	}
	for k := range defined {
		if !gated[k] {
			t.Errorf("Makefile: fuzz-short has no line for %s (directory, then target)", k)
		}
	}
	for k := range gated {
		if !defined[k] {
			t.Errorf("Makefile: fuzz-short runs %s (directory, then target), which no _test.go file defines", k)
		}
	}
}

// fuzzTargets lists every Fuzz function the module's _test.go files
// define, as "dir FuzzName" with dir relative to the module root.
func fuzzTargets(t *testing.T) map[string]bool {
	t.Helper()
	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	out := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			out[filepath.Dir(path)+" "+m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
