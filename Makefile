GO ?= go
# Every `go test` line takes GOTESTFLAGS, so a test that blocks fails
# the gate with a goroutine dump instead of hanging it
# (TestMakefileGateShape holds the recipes to this).
GOTESTFLAGS ?= -timeout 10m

.PHONY: build test fmt-check vet vet-concurrency lint lint-fix-list race fuzz-short bench-smoke snapshot-compat delta-equivalence loc verify ci

build:
	$(GO) build ./...

test:
	$(GO) test $(GOTESTFLAGS) ./...

# fmt-check fails when gofmt would rewrite any Go file of the module,
# and names the files.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "fmt-check: gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The concurrency-focused analyzers — copylocks (locks copied by value),
# atomic (misuse of sync/atomic), lostcancel (leaked context.CancelFunc)
# — are in go vet's default set, so one plain run covers them. The
# shadow analyzer is a separate vettool binary that runs nothing but
# itself; when installed it runs too, as a check of its own.
vet-concurrency:
	$(GO) vet ./...
	@if command -v shadow >/dev/null 2>&1; then \
		$(GO) vet -vettool="$$(command -v shadow)" ./...; \
	else \
		echo "vet-concurrency: shadow analyzer not installed, skipped"; \
	fi

# lint runs the repository's own analyzer (cmd/p2o-lint): determinism,
# ctx-discipline, layering, immutability, obs-conventions, pin-release,
# unsafe-confinement, and hotpath-alloc. See the "Enforced invariants"
# section of ARCHITECTURE.md. Suppress a finding with
# //p2olint:ignore <rule> <reason> — the reason is mandatory.
lint:
	$(GO) run ./cmd/p2o-lint

# lint-fix-list prints the current findings as JSON, one object per
# line — the machine-readable worklist for editors and scripts. Unlike
# `make lint` it does not fail the build on findings.
lint-fix-list:
	-$(GO) run ./cmd/p2o-lint -json

race:
	$(GO) test $(GOTESTFLAGS) -race ./...

# fuzz-short gives every fuzz target a fixed, small budget on top of
# its seed corpus (TestMakefileGateShape holds it to the Fuzz functions
# the module defines). Entirely offline and deterministic enough for CI;
# real corpus-growing sessions use `go test -fuzz=<target>` directly.
FUZZTIME ?= 5s
fuzz-short:
	$(GO) test $(GOTESTFLAGS) -run='^$$' -fuzz=FuzzParseRPSL -fuzztime=$(FUZZTIME) ./internal/whois
	$(GO) test $(GOTESTFLAGS) -run='^$$' -fuzz=FuzzParseARIN -fuzztime=$(FUZZTIME) ./internal/whois
	$(GO) test $(GOTESTFLAGS) -run='^$$' -fuzz=FuzzParseLACNIC -fuzztime=$(FUZZTIME) ./internal/whois
	$(GO) test $(GOTESTFLAGS) -run='^$$' -fuzz=FuzzParsePrefixList -fuzztime=$(FUZZTIME) ./internal/whois
	$(GO) test $(GOTESTFLAGS) -run='^$$' -fuzz=FuzzParseBlockSpec -fuzztime=$(FUZZTIME) ./internal/whois
	$(GO) test $(GOTESTFLAGS) -run='^$$' -fuzz=FuzzReadMRT -fuzztime=$(FUZZTIME) ./internal/bgp
	$(GO) test $(GOTESTFLAGS) -run='^$$' -fuzz=FuzzParseAddrBytes -fuzztime=$(FUZZTIME) ./internal/netx
	$(GO) test $(GOTESTFLAGS) -run='^$$' -fuzz=FuzzReadPDU -fuzztime=$(FUZZTIME) ./internal/rtr
	$(GO) test $(GOTESTFLAGS) -run='^$$' -fuzz=FuzzReadRPKI -fuzztime=$(FUZZTIME) ./internal/rpki
	$(GO) test $(GOTESTFLAGS) -run='^$$' -fuzz=FuzzReadAS2Org -fuzztime=$(FUZZTIME) ./internal/as2org
	$(GO) test $(GOTESTFLAGS) -run='^$$' -fuzz=FuzzLoadBinary -fuzztime=$(FUZZTIME) .
	$(GO) test $(GOTESTFLAGS) -run='^$$' -fuzz=FuzzManifest -fuzztime=$(FUZZTIME) .
	$(GO) test $(GOTESTFLAGS) -run='^$$' -fuzz=FuzzDeltaChain -fuzztime=$(FUZZTIME) .
	$(GO) test $(GOTESTFLAGS) -run='^$$' -fuzz=FuzzIgnoreDirective -fuzztime=$(FUZZTIME) ./internal/lint

# bench-smoke runs every workload of the repository benchmark (bench/,
# BENCHMARK.json) once in its smoke mode — a 300-org world, sub-second
# windows, the real daemon binaries: the numbers mean nothing, but a
# change that breaks what the benchmark drives (a daemon flag, /healthz,
# /reload, a metric it scrapes) fails here instead of at review.
bench-smoke:
	$(GO) run ./bench -quick

# snapshot-compat proves the v2 codec is self-stable: every reader
# returns a view that re-saves exactly the built dataset's v2 bytes, for
# a v2 and a JSON snapshot alike, and a section under a tag the reader
# skips survives the re-save (TestSnapshotCompatRoundTrip).
snapshot-compat:
	$(GO) test $(GOTESTFLAGS) -run TestSnapshotCompatRoundTrip -count=1 .

# delta-equivalence replays a synthetic world through six evolution
# steps, then through a chain of 65 single-object edits, and asserts the
# incremental rebuild is byte-identical to a full rebuild along the way
# — the invariant the whole delta path rests on — that every step's
# clusters and Stats equal the §5.3 reference over its records, and that
# the chain re-resolves only what each edit touched (at most 2% of its
# record-visits): a delta does work proportional to the change. It also
# runs the cluster merge through 250 single edits, each merged against
# the last result, against the same reference and a merge from nothing.
delta-equivalence:
	$(GO) test $(GOTESTFLAGS) -run 'TestDeltaEquivalence|TestDeltaManySmallSteps' -count=1 .
	$(GO) test $(GOTESTFLAGS) -run 'TestMergeEditSequence' -count=1 ./internal/cluster

# loc prints the line counts ROADMAP quotes as a success metric:
# non-test Go lines of this module reachable from ./cmd/..., and the
# same over every package.
LOC_FILES = '{{if and .Module .Module.Main}}{{$$d := .Dir}}{{range .GoFiles}}{{$$d}}/{{.}}{{"\n"}}{{end}}{{end}}'
loc:
	@printf 'non-test Go lines reachable from ./cmd/...: '; $(GO) list -deps -f $(LOC_FILES) ./cmd/... | xargs cat | wc -l
	@printf 'non-test Go lines in ./...: '; $(GO) list -f $(LOC_FILES) ./... | xargs cat | wc -l

# verify is the tier-1 gate, each check once: gofmt, go vet (whose
# default set holds the concurrency analyzers), the repository's own
# linter, build, and the race-enabled tests — which include the
# delta≡full replays, so the standalone vet and delta-equivalence targets
# are not repeated here.
verify: fmt-check vet-concurrency lint build race

# ci is the full gate: everything verify runs plus what it does not — a
# short fuzz pass and the benchmark smoke run. Every step runs offline
# against the tree alone; none reads a committed baseline. "Is it
# slower" is a paired comparison, not a gate: go run ./bench -compare A B.
ci: verify fuzz-short bench-smoke
