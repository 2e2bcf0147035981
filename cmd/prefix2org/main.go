// Command prefix2org builds the prefix-to-organization mapping from a
// data directory and answers queries.
//
// Usage:
//
//	prefix2org -data DIR [-jpnic ADDR] stats
//	prefix2org -data DIR lookup PREFIX...
//	prefix2org -data DIR cluster NAME
//	prefix2org -data DIR export
//	prefix2org -data DIR export-snapshot OUT
//
// "lookup" prints the Listing-1-style JSON record for each prefix;
// "cluster" prints the final cluster containing an organization name;
// "export" streams the whole dataset as JSON lines; "export-snapshot"
// writes a reloadable snapshot for p2o-whoisd, p2o-httpd and p2o-diff —
// binary (the offset-based P2OSNAP v2 serve format: dataset plus the
// frozen LPM index, openable in place via -snapshot-mmap) unless OUT
// ends in .json/.jsonl, which selects the JSON-lines release format; "stats" prints the Table 4 metrics. With
// -trace, the per-stage build trace (wall time and record counts per
// pipeline pass) is printed to stderr after the build.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/netip"
	"os"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/obs"
)

func main() {
	var (
		dataDir  = flag.String("data", "", "data directory (required)")
		jpnic    = flag.String("jpnic", "", "JPNIC whois server address for live allocation-type queries")
		trace    = flag.Bool("trace", false, "print the per-stage build trace to stderr")
		workers  = flag.Int("workers", 0, "build parallelism: goroutines for corpus loading and prefix resolution (0 = GOMAXPROCS, 1 = serial)")
		logLevel = flag.String("log-level", "warn", "log level: debug|info|warn|error")
		logJSON  = flag.Bool("log-json", false, "emit logs as JSON instead of text")
	)
	flag.Parse()
	if *dataDir == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: prefix2org -data DIR [-jpnic ADDR] [-trace] {stats|lookup PREFIX...|cluster NAME|export|export-snapshot OUT}")
		os.Exit(2)
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prefix2org:", err)
		os.Exit(2)
	}
	obs.Configure(level, *logJSON, os.Stderr)
	if err := run(*dataDir, *jpnic, *trace, *workers, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "prefix2org:", err)
		os.Exit(1)
	}
}

// exportRecord is the JSON shape of one dataset record (Listing 1).
type exportRecord struct {
	Prefix string `json:"prefix"`
	*prefix2org.Record
	DOPrefix   string   `json:"DO Prefix"`
	DCPrefixes []string `json:"DC Prefix(es)"`
}

func toExport(r *prefix2org.Record) exportRecord {
	dcp := make([]string, len(r.DCPrefixes))
	for i, p := range r.DCPrefixes {
		dcp[i] = p.String()
	}
	return exportRecord{Prefix: r.Prefix.String(), Record: r, DOPrefix: r.DOPrefix.String(), DCPrefixes: dcp}
}

func run(dataDir, jpnic string, trace bool, workers int, args []string) error {
	ds, err := prefix2org.BuildFromDir(context.Background(), dataDir, prefix2org.Options{JPNICWhoisAddr: jpnic, Workers: workers})
	if err != nil {
		return err
	}
	if trace && ds.Trace != nil {
		fmt.Fprintln(os.Stderr, ds.Trace.String())
	}
	switch cmd := args[0]; cmd {
	case "stats":
		return printStats(ds)
	case "lookup":
		if len(args) < 2 {
			return fmt.Errorf("lookup needs at least one prefix")
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		for _, s := range args[1:] {
			p, err := netip.ParsePrefix(s)
			if err != nil {
				return fmt.Errorf("bad prefix %q: %w", s, err)
			}
			rec, ok := ds.Lookup(p)
			if !ok {
				fmt.Fprintf(os.Stderr, "%s: not in the routed-prefix dataset\n", s)
				continue
			}
			if err := enc.Encode(toExport(rec)); err != nil {
				return err
			}
		}
		return nil
	case "cluster":
		if len(args) < 2 {
			return fmt.Errorf("cluster needs an organization name")
		}
		c, ok := ds.ClusterOfOwner(args[1])
		if !ok {
			return fmt.Errorf("no cluster for organization %q", args[1])
		}
		fmt.Printf("cluster %s (base name %q)\n", c.ID, c.BaseName)
		fmt.Printf("organization names (%d):\n", len(c.OwnerNames))
		for _, n := range c.OwnerNames {
			fmt.Printf("  %s\n", n)
		}
		fmt.Printf("prefixes (%d):\n", len(c.Prefixes))
		for _, p := range c.Prefixes {
			fmt.Printf("  %s\n", p)
		}
		return nil
	case "export-snapshot":
		if len(args) < 2 {
			return fmt.Errorf("export-snapshot needs an output path")
		}
		if err := ds.SaveFile(args[1]); err != nil {
			return err
		}
		fmt.Printf("snapshot with %d records and %d clusters written to %s\n",
			ds.NumRecords(), ds.NumClusters(), args[1])
		return nil
	case "export":
		w := bufio.NewWriter(os.Stdout)
		defer w.Flush()
		enc := json.NewEncoder(w)
		for i := range ds.Records {
			if err := enc.Encode(toExport(&ds.Records[i])); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

func printStats(ds *prefix2org.Dataset) error {
	s := ds.Stats
	fmt.Printf("IPv4 prefixes:        %d\n", s.IPv4Prefixes)
	fmt.Printf("IPv6 prefixes:        %d\n", s.IPv6Prefixes)
	fmt.Printf("unmapped prefixes:    %d\n", s.Unmapped)
	fmt.Printf("direct owners:        %d\n", s.DirectOwners)
	fmt.Printf("delegated customers:  %d (only-customer: %d)\n", s.DelegatedCustomers, s.OnlyCustomers)
	fmt.Printf("base names:           %d\n", s.BaseNames)
	fmt.Printf("origin ASNs:          %d\n", s.OriginASNs)
	fmt.Printf("RPKI groups:          %d  ASN groups: %d\n", s.PrefixRPKIGroups, s.PrefixASNGroups)
	fmt.Printf("base clusters:        %d\n", s.BaseClusters)
	fmt.Printf("final clusters:       %d (multi-name: %d)\n", s.FinalClusters, s.MultiNameClusters)
	fmt.Printf("v4/v6 in multi-name:  %.2f%% / %.2f%% (v4 space: %.2f%%)\n",
		s.PctV4InMultiName, s.PctV6InMultiName, s.PctV4SpaceInMultiName)
	fmt.Printf("v4/v6 distinct DC:    %.2f%% / %.2f%%\n", s.PctV4DistinctDC, s.PctV6DistinctDC)
	fmt.Printf("v4/v6 in RPKI RCs:    %.2f%% / %.2f%%\n", s.PctV4InRPKI, s.PctV6InRPKI)
	return nil
}
