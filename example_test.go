package prefix2org_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/synth"
	"github.com/prefix2org/prefix2org/internal/whois"
)

// writeExampleWorld generates the small synthetic world — the stand-in
// for real WHOIS/BGP/RPKI/AS2Org snapshots — and writes its data
// directory. The caller removes the directory.
func writeExampleWorld() (*synth.World, string) {
	dir, err := os.MkdirTemp("", "p2o-example")
	if err != nil {
		log.Fatal(err)
	}
	world, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := world.WriteDir(dir); err != nil {
		log.Fatal(err)
	}
	return world, dir
}

// Example demonstrates the end-to-end flow: materialize input snapshots
// (here from the synthetic-world generator), build the mapping, and
// inspect a routed prefix whose Delegated Customer differs from its
// Direct Owner — the paper's Figure 1 situation — and its final cluster.
func Example() {
	world, dir := writeExampleWorld()
	defer os.RemoveAll(dir)
	fmt.Printf("synthetic world: %d organizations, %d RIB entries, %d RPKI certificates\n",
		len(world.Orgs), len(world.RIB), len(world.RPKI.Certs))

	ds, err := prefix2org.BuildFromDir(context.Background(), dir, prefix2org.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d IPv4 + %d IPv6 routed prefixes -> %d clusters (%d multi-name)\n",
		ds.Stats.IPv4Prefixes, ds.Stats.IPv6Prefixes, ds.Stats.FinalClusters, ds.Stats.MultiNameClusters)

	for i := range ds.Records {
		r := &ds.Records[i]
		if !r.HasDistinctCustomer() {
			continue
		}
		fmt.Printf("prefix          %s (%s)\n", r.Prefix, r.RIR)
		fmt.Printf("direct owner    %s  [%s over %s]\n", r.DirectOwner, r.DOType, r.DOPrefix)
		for j, dc := range r.DelegatedCustomers {
			fmt.Printf("customer #%d     %s  [%s over %s]\n", j+1, dc, r.DCTypes[j], r.DCPrefixes[j])
		}
		fmt.Printf("base name       %q\n", r.BaseName)
		fmt.Printf("origin AS       AS%d (cluster %s)\n", r.OriginASN, r.ASNCluster)
		fmt.Printf("rpki cert       %s\n", r.RPKICert)
		fmt.Printf("final cluster   %s\n", r.FinalCluster)
		// The final cluster aggregates the owner's sibling names.
		if c, ok := ds.ClusterByID(r.FinalCluster); ok {
			fmt.Printf("cluster %s holds %d prefixes under %d name(s): %v\n",
				c.ID, len(c.Prefixes), len(c.OwnerNames), c.OwnerNames)
		}
		break
	}
	// Output:
	// synthetic world: 220 organizations, 2500 RIB entries, 151 RPKI certificates
	// dataset: 1119 IPv4 + 127 IPv6 routed prefixes -> 196 clusters (16 multi-name)
	// prefix          1.0.1.0/24 (APNIC)
	// direct owner    Aeroport Networks Australia  [Allocated Portable over 1.0.0.0/19]
	// customer #1     Cybercore Telecommunications S.A.  [Assigned Non-Portable over 1.0.1.0/24]
	// base name       "aeroport"
	// origin AS       AS3030 (cluster 3030)
	// rpki cert       94:12:56:C8:95:96:09:F3:FA:07
	// final cluster   aeroport-791620
	// cluster aeroport-791620 holds 20 prefixes under 2 name(s): [aeroport networks australia aeroport services pte ltd]
}

// ExampleBuildFromDir_delegationChains walks full delegation chains of
// routed prefixes — the paper's Figure 1 — with the JPNIC allocation
// types fetched over live RFC 3912 WHOIS (Options.JPNICWhoisAddr)
// instead of the offline cache, as the paper queried whois.nic.ad.jp
// per block.
func ExampleBuildFromDir_delegationChains() {
	world, dir := writeExampleWorld()
	defer os.RemoveAll(dir)
	// Remove the offline JPNIC types cache and serve the allocation types
	// from a WHOIS listener instead.
	if err := os.Remove(filepath.Join(dir, "whois", whois.JPNICTypesFile)); err != nil {
		log.Fatal(err)
	}
	addr, closeFn, err := world.StartJPNICServer("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer closeFn()
	ds, err := prefix2org.BuildFromDir(context.Background(), dir, prefix2org.Options{JPNICWhoisAddr: addr})
	if err != nil {
		log.Fatal(err)
	}

	// The first chain with a distinct customer, then the deepest ones.
	deepest := 0
	for i := range ds.Records {
		deepest = max(deepest, len(ds.Records[i].DelegatedCustomers))
	}
	printed := 0
	for i := 0; i < len(ds.Records) && printed < 3; i++ {
		r := &ds.Records[i]
		if !r.HasDistinctCustomer() || (printed > 0 && len(r.DelegatedCustomers) < deepest) {
			continue
		}
		printed++
		fmt.Printf("%s: %s\n", r.Prefix, r.RIR)
		fmt.Printf("  %s %s (%s) [Direct Owner]\n", r.DirectOwner, r.DOPrefix, r.DOType)
		for j, dc := range r.DelegatedCustomers {
			fmt.Printf("  %s %s (%s) [Delegated Customer]\n", dc, r.DCPrefixes[j], r.DCTypes[j])
		}
		fmt.Printf("  announced by AS%d\n", r.OriginASN)
	}

	// A JPNIC-zone prefix whose allocation type came over the wire.
	for i := range ds.Records {
		r := &ds.Records[i]
		if r.RIR != "APNIC" || !r.Prefix.Addr().Is4() {
			continue
		}
		if b := r.Prefix.Addr().As4(); b[0] == 133 || b[0] == 210 {
			fmt.Printf("JPNIC block %s: %s (%s)\n", r.Prefix, r.DirectOwner, r.DOType)
			break
		}
	}
	// Output:
	// 1.0.1.0/24: APNIC
	//   Aeroport Networks Australia 1.0.0.0/19 (Allocated Portable) [Direct Owner]
	//   Cybercore Telecommunications S.A. 1.0.1.0/24 (Assigned Non-Portable) [Delegated Customer]
	//   announced by AS3030
	// 2.1.13.0/24: ARIN
	//   Deltaswitch Technology Inc. 2.1.8.0/21 (Allocation) [Direct Owner]
	//   Aerodock Wireless Pty Ltd 2.1.13.0/24 (Re-Allocation) [Delegated Customer]
	//   Lumihost Services Ltda 2.1.13.0/24 (Reassignment) [Delegated Customer]
	//   announced by AS3143
	// 2.1.14.0/24: ARIN
	//   Deltaswitch Technology Inc. 2.1.8.0/21 (Allocation) [Direct Owner]
	//   Optibeam Online AB 2.1.14.0/24 (Re-Allocation) [Delegated Customer]
	//   Astralink Connect GmbH 2.1.14.0/24 (Reassignment) [Delegated Customer]
	//   announced by AS3021
	// JPNIC block 133.0.0.0/19: Isoloop Solutions K.K. (Allocated Portable)
}

// ExampleDataset_ClusterOfOwner shows cluster queries by organization
// name: any of the organization's WHOIS name variants reaches the same
// final cluster.
func ExampleDataset_ClusterOfOwner() {
	_, dir := writeExampleWorld()
	defer os.RemoveAll(dir)
	ds, err := prefix2org.BuildFromDir(context.Background(), dir, prefix2org.Options{})
	if err != nil {
		log.Fatal(err)
	}
	// Find a multi-name organization and query it by each of its names.
	for _, c := range ds.Clusters {
		if !c.MultiName() {
			continue
		}
		same := true
		for _, name := range c.OwnerNames {
			got, ok := ds.ClusterOfOwner(name)
			if !ok || got.ID != c.ID {
				same = false
			}
		}
		fmt.Println("all name variants reach one cluster:", same)
		return
	}
	// Output: all name variants reach one cluster: true
}
