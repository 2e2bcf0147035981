// Package diff compares two Prefix2Org dataset snapshots, surfacing the
// longitudinal dynamics the paper proposes studying with periodic
// releases (§10): prefixes appearing and disappearing from BGP, address
// transfers (Direct Owner changes), allocation-type changes, origin
// migrations (acquisition fingerprints), and RPKI adoption growth.
package diff

import (
	"fmt"
	"net/netip"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/netx"
)

// OwnerChange is one prefix whose Direct Owner changed between snapshots.
type OwnerChange struct {
	Prefix   netip.Prefix
	OldOwner string
	NewOwner string
	// SameCluster is true when both owners sit in the same final cluster
	// of the new snapshot — an intra-organization re-registration rather
	// than a transfer.
	SameCluster bool
}

// OriginChange is one prefix that kept its owner but moved origin ASN.
type OriginChange struct {
	Prefix    netip.Prefix
	Owner     string
	OldOrigin uint32
	NewOrigin uint32
}

// TypeChange is one prefix whose Direct Owner allocation type changed
// (e.g. legacy space coming under agreement).
type TypeChange struct {
	Prefix  netip.Prefix
	OldType string
	NewType string
}

// Report summarizes the comparison of two snapshots.
type Report struct {
	// Added / Removed prefixes (appeared in / vanished from BGP).
	Added, Removed []netip.Prefix
	// Transfers are Direct Owner changes across clusters.
	Transfers []OwnerChange
	// Renames are Direct Owner changes within one cluster.
	Renames []OwnerChange
	// OriginChanges are same-owner origin migrations.
	OriginChanges []OriginChange
	// TypeChanges are allocation-type changes.
	TypeChanges []TypeChange
	// RPKINewlyCovered counts prefixes that gained Resource-Certificate
	// coverage; RPKILostCoverage the reverse.
	RPKINewlyCovered, RPKILostCoverage int
	// Stable counts prefixes with no observed change.
	Stable int
}

// Summary renders a one-paragraph overview.
func (r *Report) Summary() string {
	return fmt.Sprintf(
		"+%d prefixes, -%d prefixes, %d transfers, %d intra-org renames, %d origin migrations, %d type changes, +%d RPKI-covered, %d stable",
		len(r.Added), len(r.Removed), len(r.Transfers), len(r.Renames),
		len(r.OriginChanges), len(r.TypeChanges), r.RPKINewlyCovered, r.Stable)
}

// walk visits every routed prefix of either snapshot once, in prefix
// order, with its record on each side (nil where the prefix is absent).
// Both record lists are sorted by prefix, so one merge pass pairs them;
// records are fetched through RecordAt, so a view-backed dataset is read
// in place, chunk by chunk. Callers diffing a mmap-backed dataset must
// keep it pinned (unclosed) for the duration.
func walk(oldDS, newDS *prefix2org.Dataset, visit func(or, nr *prefix2org.Record)) error {
	if oldDS == nil || newDS == nil {
		return fmt.Errorf("diff: nil dataset")
	}
	n, m := oldDS.NumRecords(), newDS.NumRecords()
	for i, j := 0, 0; i < n || j < m; {
		var c int // < 0: the next prefix is on the old side only; > 0: new only; 0: both
		switch {
		case j >= m:
			c = -1
		case i >= n:
			c = 1
		default:
			c = netx.Compare(oldDS.RecordAt(i).Prefix, newDS.RecordAt(j).Prefix)
		}
		var or, nr *prefix2org.Record
		if c <= 0 {
			or = oldDS.RecordAt(i)
			i++
		}
		if c >= 0 {
			nr = newDS.RecordAt(j)
			j++
		}
		visit(or, nr)
	}
	return nil
}

// Compare diffs two snapshots (old → new). Every list of the Report
// comes out in prefix order, the order of the walk.
func Compare(oldDS, newDS *prefix2org.Dataset) (*Report, error) {
	rep := &Report{}
	err := walk(oldDS, newDS, func(or, nr *prefix2org.Record) {
		switch {
		case or == nil:
			rep.Added = append(rep.Added, nr.Prefix)
			return
		case nr == nil:
			rep.Removed = append(rep.Removed, or.Prefix)
			return
		}
		changed := false
		if or.DirectOwner != nr.DirectOwner {
			changed = true
			ch := OwnerChange{Prefix: nr.Prefix, OldOwner: or.DirectOwner, NewOwner: nr.DirectOwner}
			// Same final cluster in the new snapshot means the "change"
			// is a name-variant shuffle, not a transfer.
			oldC, ok1 := newDS.ClusterOfOwner(or.DirectOwner)
			newC, ok2 := newDS.ClusterOfOwner(nr.DirectOwner)
			ch.SameCluster = ok1 && ok2 && oldC.ID == newC.ID
			if ch.SameCluster {
				rep.Renames = append(rep.Renames, ch)
			} else {
				rep.Transfers = append(rep.Transfers, ch)
			}
		} else if or.OriginASN != nr.OriginASN && or.OriginASN != 0 && nr.OriginASN != 0 {
			changed = true
			rep.OriginChanges = append(rep.OriginChanges, OriginChange{
				Prefix: nr.Prefix, Owner: nr.DirectOwner,
				OldOrigin: or.OriginASN, NewOrigin: nr.OriginASN,
			})
		}
		if or.DOType != nr.DOType {
			changed = true
			rep.TypeChanges = append(rep.TypeChanges, TypeChange{
				Prefix: nr.Prefix, OldType: or.DOType, NewType: nr.DOType,
			})
		}
		switch {
		case or.RPKICert == "" && nr.RPKICert != "":
			changed = true
			rep.RPKINewlyCovered++
		case or.RPKICert != "" && nr.RPKICert == "":
			changed = true
			rep.RPKILostCoverage++
		}
		if !changed {
			rep.Stable++
		}
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}
