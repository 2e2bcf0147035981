// Command p2o-diff compares two Prefix2Org dataset snapshots (written by
// `prefix2org export-snapshot` or Dataset.SaveFile) and reports the
// longitudinal dynamics: added/removed prefixes, address transfers,
// intra-organization renames, origin migrations and RPKI coverage
// changes.
//
// Usage:
//
//	p2o-diff [-max N] [-json] OLD.jsonl NEW.jsonl
//
// -json switches to machine-readable output: the exact changeset as
// NDJSON, one self-describing object per changed prefix or org
// (internal/diff.Changeset.WriteJSON).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/diff"
)

func main() {
	maxRows := flag.Int("max", 20, "maximum rows to print per change category")
	asJSON := flag.Bool("json", false, "emit the exact changeset as NDJSON, one object per changed prefix or org, instead of the human report")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: p2o-diff [-max N] [-json] OLD.jsonl NEW.jsonl")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), flag.Arg(1), *maxRows, *asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "p2o-diff:", err)
		os.Exit(1)
	}
}

func run(oldPath, newPath string, maxRows int, asJSON bool) error {
	ctx := context.Background()
	oldDS, err := prefix2org.LoadFile(ctx, oldPath)
	if err != nil {
		return err
	}
	newDS, err := prefix2org.LoadFile(ctx, newPath)
	if err != nil {
		return err
	}
	if asJSON {
		cs, err := diff.Changes(oldDS, newDS)
		if err != nil {
			return err
		}
		return cs.WriteJSON(os.Stdout)
	}
	rep, err := diff.Compare(oldDS, newDS)
	if err != nil {
		return err
	}
	fmt.Println(rep.Summary())
	fmt.Println()
	lim := func(n int) int {
		if n > maxRows {
			return maxRows
		}
		return n
	}
	if len(rep.Transfers) > 0 {
		fmt.Printf("transfers (%d):\n", len(rep.Transfers))
		for _, ch := range rep.Transfers[:lim(len(rep.Transfers))] {
			fmt.Printf("  %-20s %q -> %q\n", ch.Prefix, ch.OldOwner, ch.NewOwner)
		}
		fmt.Println()
	}
	if len(rep.Renames) > 0 {
		fmt.Printf("intra-organization renames (%d):\n", len(rep.Renames))
		for _, ch := range rep.Renames[:lim(len(rep.Renames))] {
			fmt.Printf("  %-20s %q -> %q (same cluster)\n", ch.Prefix, ch.OldOwner, ch.NewOwner)
		}
		fmt.Println()
	}
	if len(rep.OriginChanges) > 0 {
		fmt.Printf("origin migrations (%d):\n", len(rep.OriginChanges))
		for _, oc := range rep.OriginChanges[:lim(len(rep.OriginChanges))] {
			fmt.Printf("  %-20s %q: AS%d -> AS%d\n", oc.Prefix, oc.Owner, oc.OldOrigin, oc.NewOrigin)
		}
		fmt.Println()
	}
	if len(rep.TypeChanges) > 0 {
		fmt.Printf("allocation-type changes (%d):\n", len(rep.TypeChanges))
		for _, tc := range rep.TypeChanges[:lim(len(rep.TypeChanges))] {
			fmt.Printf("  %-20s %s -> %s\n", tc.Prefix, tc.OldType, tc.NewType)
		}
		fmt.Println()
	}
	if len(rep.Added) > 0 {
		fmt.Printf("newly routed prefixes (%d):\n", len(rep.Added))
		for _, p := range rep.Added[:lim(len(rep.Added))] {
			fmt.Printf("  %s\n", p)
		}
		fmt.Println()
	}
	if len(rep.Removed) > 0 {
		fmt.Printf("withdrawn prefixes (%d):\n", len(rep.Removed))
		for _, p := range rep.Removed[:lim(len(rep.Removed))] {
			fmt.Printf("  %s\n", p)
		}
	}
	return nil
}
