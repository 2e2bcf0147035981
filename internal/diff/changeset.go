package diff

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"sort"

	prefix2org "github.com/prefix2org/prefix2org"
)

// PrefixChange is one routed prefix whose record differs between two
// snapshots. Kind is always "prefix" (the NDJSON discriminator).
type PrefixChange struct {
	Kind   string       `json:"kind"`
	Change string       `json:"change"` // "added" | "removed" | "changed"
	Prefix netip.Prefix `json:"prefix"`

	OldOwner   string `json:"old_owner,omitempty"`
	NewOwner   string `json:"new_owner,omitempty"`
	OldOrigin  uint32 `json:"old_origin,omitempty"`
	NewOrigin  uint32 `json:"new_origin,omitempty"`
	OldCluster string `json:"old_cluster,omitempty"`
	NewCluster string `json:"new_cluster,omitempty"`
}

// OrgChange is one final cluster that appeared, vanished, or changed
// content between two snapshots. Kind is always "org".
type OrgChange struct {
	Kind   string `json:"kind"`
	Change string `json:"change"` // "added" | "removed" | "changed"
	ID     string `json:"id"`
}

// Changeset is the exact delta between two snapshots, published on the
// store alongside each swap so downstream consumers — the httpd response
// cache — can react to what actually changed instead of recomputing or
// flushing wholesale.
type Changeset struct {
	Prefixes []PrefixChange
	Orgs     []OrgChange
}

// Empty reports a changeset with no record- or org-level differences.
func (c *Changeset) Empty() bool {
	return len(c.Prefixes) == 0 && len(c.Orgs) == 0
}

// Summary renders a one-line overview for reload logs.
func (c *Changeset) Summary() string {
	var added, removed, changed int
	for _, p := range c.Prefixes {
		switch p.Change {
		case "added":
			added++
		case "removed":
			removed++
		default:
			changed++
		}
	}
	return fmt.Sprintf("+%d ~%d -%d prefixes, %d org changes",
		added, changed, removed, len(c.Orgs))
}

// recordsEqual compares every field a snapshot serializes for one
// record — the byte-identity the delta pipeline guarantees makes this
// the exact "did this prefix's answer change" predicate.
func recordsEqual(a, b *prefix2org.Record) bool {
	if a.Prefix != b.Prefix || a.RIR != b.RIR || a.DirectOwner != b.DirectOwner ||
		a.DOPrefix != b.DOPrefix || a.DOType != b.DOType || a.BaseName != b.BaseName ||
		a.RPKICert != b.RPKICert || a.OriginASN != b.OriginASN ||
		a.ASNCluster != b.ASNCluster || a.FinalCluster != b.FinalCluster {
		return false
	}
	if len(a.DelegatedCustomers) != len(b.DelegatedCustomers) {
		return false
	}
	for i := range a.DelegatedCustomers {
		if a.DelegatedCustomers[i] != b.DelegatedCustomers[i] ||
			a.DCPrefixes[i] != b.DCPrefixes[i] || a.DCTypes[i] != b.DCTypes[i] {
			return false
		}
	}
	return true
}

// Changes computes the exact changeset old → new: every added, removed
// and changed record from the merge walk Compare also runs on, and org
// changes from comparing the final clusters by ID (an ID derives from
// the member names, so a cluster whose prefix list shifted keeps its ID
// but reports "changed").
func Changes(oldDS, newDS *prefix2org.Dataset) (*Changeset, error) {
	cs := &Changeset{}
	err := walk(oldDS, newDS, func(or, nr *prefix2org.Record) {
		if or != nil && nr != nil && recordsEqual(or, nr) {
			return
		}
		ch := PrefixChange{Kind: "prefix", Change: "changed"}
		if or != nil {
			ch.Prefix, ch.OldOwner, ch.OldOrigin, ch.OldCluster = or.Prefix, or.DirectOwner, or.OriginASN, or.FinalCluster
		} else {
			ch.Change = "added"
		}
		if nr != nil {
			ch.Prefix, ch.NewOwner, ch.NewOrigin, ch.NewCluster = nr.Prefix, nr.DirectOwner, nr.OriginASN, nr.FinalCluster
		} else {
			ch.Change = "removed"
		}
		cs.Prefixes = append(cs.Prefixes, ch)
	})
	if err != nil {
		return nil, err
	}
	oldC := make(map[string]*prefix2org.Cluster, oldDS.NumClusters())
	for i := 0; i < oldDS.NumClusters(); i++ {
		c := oldDS.ClusterAt(i)
		oldC[c.ID] = c
	}
	for i := 0; i < newDS.NumClusters(); i++ {
		c := newDS.ClusterAt(i)
		o, existed := oldC[c.ID]
		if !existed {
			cs.Orgs = append(cs.Orgs, OrgChange{Kind: "org", Change: "added", ID: c.ID})
			continue
		}
		delete(oldC, c.ID)
		if !clustersEqual(o, c) {
			cs.Orgs = append(cs.Orgs, OrgChange{Kind: "org", Change: "changed", ID: c.ID})
		}
	}
	for id := range oldC {
		cs.Orgs = append(cs.Orgs, OrgChange{Kind: "org", Change: "removed", ID: id})
	}
	sort.Slice(cs.Orgs, func(a, b int) bool { return cs.Orgs[a].ID < cs.Orgs[b].ID })
	return cs, nil
}

func clustersEqual(a, b *prefix2org.Cluster) bool {
	if a.BaseName != b.BaseName || len(a.OwnerNames) != len(b.OwnerNames) || len(a.Prefixes) != len(b.Prefixes) {
		return false
	}
	for i := range a.OwnerNames {
		if a.OwnerNames[i] != b.OwnerNames[i] {
			return false
		}
	}
	for i := range a.Prefixes {
		if a.Prefixes[i] != b.Prefixes[i] {
			return false
		}
	}
	return true
}

// WriteJSON streams the changeset as NDJSON: one object per changed
// prefix, then one per changed org, each carrying the "kind"
// discriminator. This is the one serializer shared by the published
// store changeset and the p2o-diff -json CLI output.
func (c *Changeset) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range c.Prefixes {
		if err := enc.Encode(&c.Prefixes[i]); err != nil {
			return err
		}
	}
	for i := range c.Orgs {
		if err := enc.Encode(&c.Orgs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
