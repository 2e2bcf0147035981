package prefix2org

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestMakefileGateShape holds the gate to the tree it gates: every
// prerequisite a Makefile rule names — ci's and verify's among them, and
// the .PHONY list — is a target the Makefile defines, and every recipe
// that runs `go test` passes $(GOTESTFLAGS), so a test that blocks fails
// the gate on its -timeout instead of hanging it.
func TestMakefileGateShape(t *testing.T) {
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	rule := regexp.MustCompile(`^([A-Za-z0-9_.-]+):([^=]*)$`)
	prereqs := map[string][]string{} // by target; a key for every rule
	for n, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "\t") {
			if strings.Contains(line, "$(GO) test ") && !strings.Contains(line, "$(GOTESTFLAGS)") {
				t.Errorf("Makefile:%d: a go test recipe without $(GOTESTFLAGS): %s", n+1, strings.TrimSpace(line))
			}
			continue
		}
		if m := rule.FindStringSubmatch(line); m != nil {
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
}
