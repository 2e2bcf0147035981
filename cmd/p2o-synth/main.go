// Command p2o-synth generates a synthetic-Internet data directory — the
// substitute for the paper's September 2024 WHOIS/BGP/RPKI/AS2Org
// snapshots — in the on-disk formats the prefix2org pipeline consumes.
//
// Usage:
//
//	p2o-synth -out DIR [-orgs N] [-seed S] [-collectors N] [-epochs N] [-serve-jpnic ADDR]
//
// With -epochs N > 1 the world is additionally evolved N-1 times
// (transfers, new delegations, acquisitions, RPKI adoption growth, three
// months apart) and each snapshot lands in DIR/t0, DIR/t1, ... — the
// input series for longitudinal studies with p2o-diff.
//
// With -serve-jpnic the command also starts an RFC 3912 WHOIS server
// answering JPNIC allocation-type queries (and removes the offline types
// cache so the pipeline must use the live path), then blocks.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"github.com/prefix2org/prefix2org/internal/synth"
	"github.com/prefix2org/prefix2org/internal/whois"
)

func main() {
	var (
		out        = flag.String("out", "", "output data directory (required)")
		orgs       = flag.Int("orgs", synth.DefaultConfig().NumOrgs, "number of organizations")
		seed       = flag.Int64("seed", synth.DefaultConfig().Seed, "generation seed")
		collectors = flag.Int("collectors", synth.DefaultConfig().Collectors, "number of BGP collectors")
		epochs     = flag.Int("epochs", 1, "number of quarterly snapshots to generate (evolving the world between them)")
		serveJPNIC = flag.String("serve-jpnic", "", "also serve JPNIC whois on this address (e.g. 127.0.0.1:4343) and block")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "p2o-synth: -out is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*out, *orgs, *seed, *collectors, *epochs, *serveJPNIC); err != nil {
		fmt.Fprintln(os.Stderr, "p2o-synth:", err)
		os.Exit(1)
	}
}

func run(out string, orgs int, seed int64, collectors, epochs int, serveJPNIC string) error {
	cfg := synth.Config{Seed: seed, NumOrgs: orgs, Collectors: collectors}
	w, err := synth.Generate(cfg)
	if err != nil {
		return err
	}
	if epochs > 1 {
		// Quarterly snapshot series: t0, t1, ... with evolution between.
		for e := 0; e < epochs; e++ {
			dir := filepath.Join(out, fmt.Sprintf("t%d", e))
			if e > 0 {
				scale := max(1, orgs/100)
				if w, err = w.Evolve(synth.EvolveOptions{
					Seed:           seed + int64(e),
					Transfers:      2 * scale,
					NewDelegations: 3 * scale,
					NewAdopters:    2 * scale,
					Acquisitions:   max(1, scale/2),
					MonthsLater:    3,
				}); err != nil {
					return err
				}
			}
			if err := w.WriteDir(dir); err != nil {
				return err
			}
			fmt.Printf("epoch %d written to %s\n", e, dir)
		}
		return nil
	}
	if err := w.WriteDir(out); err != nil {
		return err
	}
	fmt.Printf("world written to %s: %d orgs, %d RIB entries, %d RPKI certs, %d ROAs, %d JPNIC blocks\n",
		out, len(w.Orgs), len(w.RIB), len(w.RPKI.Certs), len(w.RPKI.ROAs), len(w.JPNICTypes))

	if serveJPNIC == "" {
		return nil
	}
	// Live-query mode: drop the offline cache so consumers exercise the
	// RFC 3912 path, then serve until interrupted.
	cache := filepath.Join(out, "whois", whois.JPNICTypesFile)
	if err := os.Remove(cache); err != nil && !os.IsNotExist(err) {
		return err
	}
	addr, closeFn, err := w.StartJPNICServer(serveJPNIC)
	if err != nil {
		return err
	}
	defer closeFn()
	fmt.Printf("JPNIC whois serving on %s (types cache removed; pass -jpnic %s to prefix2org)\n", addr, addr)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	return nil
}
