package lint

// DefaultConfig is the rule table for this repository, mirroring the
// contracts in ARCHITECTURE.md ("Enforced invariants" maps each entry
// back to the prose it guards). modPath is the module path from go.mod
// so the table works wherever the module is checked out.
func DefaultConfig(modPath string) *Config {
	// buildPath: everything between corpus bytes and the frozen
	// Dataset. obs, store, and the daemons are exempt — they measure
	// wall time and serve traffic by design.
	buildPath := []string{
		"", // root: flatten/resolve/cluster/stats orchestration
		"internal/synth",
		"internal/whois",
		"internal/bgp",
		"internal/rpki",
		"internal/as2org",
		"internal/cluster",
		"internal/delegated",
		"internal/leasing",
		"internal/names",
		"internal/diff",
		"internal/lpm",
		"internal/intern",
		"internal/jsonl",
	}

	// Read-side I/O in these packages must be cancelable: loaders run
	// concurrently under BuildFromDir and the reloader, and a stuck
	// file or dial must not outlive its build.
	ioCtx := []string{
		"",
		"internal/whois",
		"internal/bgp",
		"internal/rpki",
		"internal/as2org",
		"internal/cluster",
		"internal/delegated",
		"internal/leasing",
		"internal/names",
		"internal/synth",
		"internal/experiments",
	}

	// The serving layer plus evaluation harnesses, which nothing on
	// the build path may reach up into.
	servingAndAbove := []string{
		"internal/store",
		"internal/daemon",
		"internal/daemon/daemontest",
		"internal/whoisd",
		"internal/httpd",
		"internal/rtr",
		"internal/experiments",
		"internal/casestudy",
		"internal/validate",
		"internal/lint",
	}
	// Leaf utilities: no module-internal imports at all.
	leafDeny := []string{""} // the root package...
	for _, p := range []string{
		"internal/alloc", "internal/as2org", "internal/bgp", "internal/casestudy",
		"internal/cluster", "internal/daemon", "internal/daemon/daemontest",
		"internal/delegated", "internal/diff", "internal/dsu",
		"internal/experiments", "internal/fsx", "internal/httpd", "internal/intern", "internal/jsonl", "internal/leasing",
		"internal/lint", "internal/lpm", "internal/names", "internal/netx", "internal/obs",
		"internal/report", "internal/retry", "internal/rpki",
		"internal/rtr", "internal/store", "internal/synth", "internal/validate",
		"internal/whois", "internal/whoisd",
	} {
		leafDeny = append(leafDeny, p)
	}

	layering := map[string][]string{
		// Root build package: below serving, never reaches up.
		"": servingAndAbove,
		// Corpus parsers and build stages: below serving and the
		// harnesses.
		"internal/whois":     servingAndAbove,
		"internal/bgp":       servingAndAbove,
		"internal/rpki":      servingAndAbove,
		"internal/as2org":    servingAndAbove,
		"internal/delegated": servingAndAbove,
		"internal/leasing":   servingAndAbove,
		"internal/names":     servingAndAbove,
		"internal/cluster":   servingAndAbove,
		"internal/synth":     servingAndAbove,
		"internal/diff":      servingAndAbove,
		// Leaf utilities import nothing module-internal.
		"internal/netx":   leafDeny,
		"internal/dsu":    leafDeny,
		"internal/report": leafDeny,
		"internal/retry":  leafDeny,
		"internal/alloc":  leafDeny,
		"internal/obs":    leafDeny,
		"internal/lpm":    leafDeny,
		"internal/intern": leafDeny,
		"internal/jsonl":  leafDeny,
		"internal/fsx":    leafDeny,
		// The store is below the daemon skeleton, the front ends and
		// the harnesses.
		"internal/store": {"internal/daemon", "internal/daemon/daemontest", "internal/whoisd", "internal/httpd", "internal/rtr", "internal/experiments", "internal/casestudy"},
		// The daemon skeleton sits between the store and the mains: it
		// wires store, obs and the root package together, and the front
		// ends use its accept loop and resolver — never the reverse.
		"internal/daemon": {"internal/whoisd", "internal/httpd", "internal/rtr", "internal/experiments", "internal/casestudy", "internal/validate", "internal/lint"},
		// The front ends answer from the snapshot a request pins; what a
		// reload changed is not their concern.
		"internal/httpd":  {"internal/diff"},
		"internal/whoisd": {"internal/diff"},
		// The linter analyzes everything and depends on nothing.
		"internal/lint": leafDeny,
	}

	return &Config{
		BuildPath: buildPath,
		IOCtx:     ioCtx,
		Layering:  layering,
		Immutable: map[string][]string{
			// Dataset is assembled by the root build() and its Load
			// path, then frozen; store snapshots are frozen at Swap;
			// the LPM index is frozen at Freeze/Decode and shared by
			// every concurrent reader afterwards.
			modPath + ".Dataset":                 {""},
			modPath + "/internal/store.Snapshot": {"internal/store"},
			modPath + "/internal/lpm.Index":      {"internal/lpm"},
		},
		Obs: ObsConfig{
			RegistryType: modPath + "/internal/obs.Registry",
			LabelFunc:    modPath + "/internal/obs.Label",
			Methods:      []string{"Counter", "Gauge", "Histogram", "GaugeFunc"},
		},
		// Every handler that answers from snapshot data pins it via
		// Acquire; the pass holds each pin to a release on all exits.
		Pin: PinConfig{
			StoreType: modPath + "/internal/store.Store",
			Method:    "Acquire",
		},
		Unsafe: UnsafeConfig{
			// The only files allowed to alias raw memory: the snapshot
			// blob view (unsafe.String over file bytes) and the LPM
			// column views (unsafe.Slice over the mmap'd arrays).
			AllowUnsafe: []string{
				"snapview.go",
				"internal/lpm/view.go",
			},
			// syscall is confined to the mmap platform glue, the daemon
			// skeleton's signal loop and p2o-synth, which need the
			// SIGHUP/SIGTERM constants for reload/shutdown wiring
			// (os/signal carries no such names).
			AllowSyscall: []string{
				"mmap_unix.go",
				"internal/daemon/daemon.go",
				"cmd/p2o-synth/main.go",
			},
			// On a view-backed Dataset these accessors return records
			// whose strings alias the snapshot's buffer.
			AliasAccessors: map[string][]string{
				modPath + ".Dataset": {"RecordAt", "ClusterAt"},
			},
			// The root package implements the view and its
			// materialization caches.
			AliasExempt: []string{""},
		},
	}
}
