// Package as2org models AS-to-organization data and sibling inference.
//
// Prefix2Org consumes three related datasets (§4.4 of the paper): CAIDA's
// AS2Org mapping (ASN → organization), and the sibling inferences of
// as2org+ (Arturi et al.) and IIL-AS2Org (Chen et al.), which identify
// additional ASNs operated by the same organization. The pipeline reduces
// all three to one equivalence relation — the *ASN Cluster* — computed
// here with a disjoint-set union: ASNs sharing a CAIDA organization ID
// are siblings, and every sibling set from the enrichment datasets is
// unioned in on top.
//
// The on-disk format is line-oriented JSON in the shape of CAIDA's
// published as2org files, extended with a SiblingSet record type for the
// enrichment datasets.
package as2org

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"

	"github.com/prefix2org/prefix2org/internal/dsu"
	"github.com/prefix2org/prefix2org/internal/fsx"
	"github.com/prefix2org/prefix2org/internal/intern"
	"github.com/prefix2org/prefix2org/internal/jsonl"
)

// ASInfo is one AS registration in the AS2Org dataset.
type ASInfo struct {
	ASN     uint32
	OrgID   string
	OrgName string
	Country string
}

// SiblingSet is a group of ASNs inferred to belong to one organization by
// an enrichment dataset.
type SiblingSet struct {
	ASNs   []uint32
	Source string // "as2org+", "IIL-AS2Org", ...
}

// Dataset is the merged AS2Org view.
type Dataset struct {
	// ASes indexes registrations by ASN.
	ASes map[uint32]ASInfo
	// Orgs indexes organization names by CAIDA org ID.
	Orgs map[string]string
	// Siblings are the enrichment sibling sets.
	Siblings []SiblingSet
}

// NewDataset returns an empty dataset.
func NewDataset() *Dataset {
	return &Dataset{ASes: map[uint32]ASInfo{}, Orgs: map[string]string{}}
}

// AddAS registers an ASN under a CAIDA organization.
func (d *Dataset) AddAS(asn uint32, orgID, orgName, country string) {
	d.ASes[asn] = ASInfo{ASN: asn, OrgID: orgID, OrgName: orgName, Country: country}
	if orgID != "" && orgName != "" {
		d.Orgs[orgID] = orgName
	}
}

// AddSiblings appends an enrichment sibling set.
func (d *Dataset) AddSiblings(source string, asns ...uint32) {
	d.Siblings = append(d.Siblings, SiblingSet{ASNs: asns, Source: source})
}

// OrgName returns the organization name operating asn, if known.
func (d *Dataset) OrgName(asn uint32) (string, bool) {
	info, ok := d.ASes[asn]
	if !ok {
		return "", false
	}
	if info.OrgName != "" {
		return info.OrgName, true
	}
	if name, ok := d.Orgs[info.OrgID]; ok {
		return name, true
	}
	return "", false
}

// Clusters is the ASN-cluster equivalence relation: ASNs owned by the
// same organization map to the same cluster ID.
//
// A Clusters is frozen at BuildClusters time — the union-find that
// computes it is discarded and the relation is kept as plain lookup
// maps — so ClusterID, Same and Members are pure reads, safe for
// concurrent use by the pipeline's parallel resolve workers.
type Clusters struct {
	// id maps every ASN seen in the dataset to its canonical cluster ID.
	id map[uint32]string
	// members maps a cluster ID to its sorted member ASNs.
	members map[string][]uint32
}

// BuildClusters computes ASN clusters from the dataset: union by shared
// CAIDA org ID, then union every sibling set. The union-find runs over
// positions in the sorted list of every ASN the dataset names, so a
// cluster's members come out ascending and its first member is its ID.
func (d *Dataset) BuildClusters() *Clusters {
	asns := make([]uint32, 0, len(d.ASes))
	for asn := range d.ASes {
		asns = append(asns, asn)
	}
	for _, s := range d.Siblings {
		asns = append(asns, s.ASNs...)
	}
	slices.Sort(asns)
	asns = slices.Compact(asns)
	pos := func(asn uint32) int32 {
		i, _ := slices.BinarySearch(asns, asn)
		return int32(i)
	}

	u := dsu.New(len(asns))
	byOrg := map[string]int32{}
	for i, asn := range asns {
		info, ok := d.ASes[asn]
		if !ok || info.OrgID == "" {
			continue
		}
		if first, ok := byOrg[info.OrgID]; ok {
			u.Union(first, int32(i))
		} else {
			byOrg[info.OrgID] = int32(i)
		}
	}
	for _, s := range d.Siblings {
		for i := 1; i < len(s.ASNs); i++ {
			u.Union(pos(s.ASNs[0]), pos(s.ASNs[i]))
		}
	}

	c := &Clusters{id: make(map[uint32]string, len(asns)), members: map[string][]uint32{}}
	idOf := make([]string, len(asns)) // by representative position
	for i, asn := range asns {
		r := u.Find(int32(i))
		if idOf[r] == "" {
			idOf[r] = key(asn) // ascending: the first member seen is the lowest
		}
		id := idOf[r]
		c.id[asn] = id
		c.members[id] = append(c.members[id], asn)
	}
	return c
}

func key(asn uint32) string { return strconv.FormatUint(uint64(asn), 10) }

// ClusterID returns the canonical cluster identifier for asn: the lowest
// ASN in its cluster, as a decimal string. ASNs never seen in the dataset
// form singleton clusters.
func (c *Clusters) ClusterID(asn uint32) string {
	if id, ok := c.id[asn]; ok {
		return id
	}
	return key(asn)
}

// Same reports whether two ASNs are in the same cluster.
func (c *Clusters) Same(a, b uint32) bool { return c.ClusterID(a) == c.ClusterID(b) }

// Members returns the sorted ASNs in asn's cluster (at least asn itself).
func (c *Clusters) Members(asn uint32) []uint32 {
	if ms, ok := c.members[c.ClusterID(asn)]; ok && len(ms) > 0 {
		return ms
	}
	return []uint32{asn}
}

// --- serialization -------------------------------------------------------

type orgJSON struct {
	Type    string `json:"type"` // "Organization"
	OrgID   string `json:"organizationId"`
	Name    string `json:"name"`
	Country string `json:"country,omitempty"`
}

type asnJSON struct {
	Type  string `json:"type"` // "ASN"
	ASN   uint32 `json:"asn"`
	OrgID string `json:"organizationId"`
}

type siblingJSON struct {
	Type   string   `json:"type"` // "SiblingSet"
	ASNs   []uint32 `json:"asns"`
	Source string   `json:"source"`
}

// Write serializes the dataset as line-oriented JSON in deterministic
// order: organizations, then ASNs, then sibling sets.
func (d *Dataset) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	orgIDs := make([]string, 0, len(d.Orgs))
	for id := range d.Orgs {
		orgIDs = append(orgIDs, id)
	}
	sort.Strings(orgIDs)
	for _, id := range orgIDs {
		if err := enc.Encode(orgJSON{Type: "Organization", OrgID: id, Name: d.Orgs[id]}); err != nil {
			return fmt.Errorf("as2org: encode org %s: %w", id, err)
		}
	}
	asns := make([]uint32, 0, len(d.ASes))
	for asn := range d.ASes {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	for _, asn := range asns {
		if err := enc.Encode(asnJSON{Type: "ASN", ASN: asn, OrgID: d.ASes[asn].OrgID}); err != nil {
			return fmt.Errorf("as2org: encode AS%d: %w", asn, err)
		}
	}
	for _, s := range d.Siblings {
		if err := enc.Encode(siblingJSON{Type: "SiblingSet", ASNs: s.ASNs, Source: s.Source}); err != nil {
			return fmt.Errorf("as2org: encode sibling set: %w", err)
		}
	}
	return bw.Flush()
}

// Read parses a dataset written by Write. A line in the exact shape Write
// emits is read straight from its bytes; any other line is
// encoding/json's.
func Read(r io.Reader) (*Dataset, error) {
	rd := reader{d: NewDataset(), strs: intern.New(0)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 || rd.scanLine(line) {
			continue
		}
		if err := rd.decodeLine(line); err != nil {
			return nil, fmt.Errorf("as2org: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("as2org: scan: %w", err)
	}
	d := rd.d
	// Backfill org names onto AS records parsed before their org line.
	for asn, info := range d.ASes {
		if info.OrgName == "" {
			info.OrgName = d.Orgs[info.OrgID]
			d.ASes[asn] = info
		}
	}
	return d, nil
}

// reader is the state of one Read.
type reader struct {
	d *Dataset
	// strs shares the strings a dataset repeats: every ASN line names
	// its organization's ID, every sibling set one of a few sources.
	strs *intern.Table
}

// scanLine adds the record on line to the dataset when the line has
// exactly the shape Write emits, reading it in place. false means the
// line is something else — not that it is wrong — and nothing was added:
// decodeLine decides.
func (rd *reader) scanLine(line []byte) bool {
	l := jsonl.Open(line)
	switch string(l.String("type")) {
	case "Organization":
		id, name := l.String("organizationId"), l.String("name")
		if l.Next("country") {
			l.String("country") // Read keeps no country
		}
		if !l.Close() {
			return false
		}
		rd.d.Orgs[rd.strs.Bytes(id)] = string(name)
		return true
	case "ASN":
		asn := l.Uint("asn", math.MaxUint32)
		id := l.String("organizationId")
		if !l.Close() {
			return false
		}
		rd.addASN(uint32(asn), rd.strs.Bytes(id))
		return true
	case "SiblingSet":
		asns := l.Uint32s("asns")
		source := l.String("source")
		if !l.Close() {
			return false
		}
		rd.d.Siblings = append(rd.d.Siblings, SiblingSet{ASNs: asns, Source: rd.strs.Bytes(source)})
		return true
	}
	return false
}

func (rd *reader) addASN(asn uint32, orgID string) {
	rd.d.ASes[asn] = ASInfo{ASN: asn, OrgID: orgID, OrgName: rd.d.Orgs[orgID]}
}

// decodeLine adds the record on line to the dataset through
// encoding/json: once for the line's type, once for that type's members.
func (rd *reader) decodeLine(line []byte) error {
	var kind struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(line, &kind); err != nil {
		return err
	}
	switch kind.Type {
	case "Organization":
		var o orgJSON
		if err := json.Unmarshal(line, &o); err != nil {
			return err
		}
		rd.d.Orgs[o.OrgID] = o.Name
	case "ASN":
		var a asnJSON
		if err := json.Unmarshal(line, &a); err != nil {
			return err
		}
		rd.addASN(a.ASN, a.OrgID)
	case "SiblingSet":
		var s siblingJSON
		if err := json.Unmarshal(line, &s); err != nil {
			return err
		}
		rd.d.Siblings = append(rd.d.Siblings, SiblingSet{ASNs: s.ASNs, Source: s.Source})
	default:
		return fmt.Errorf("unknown record type %q", kind.Type)
	}
	return nil
}

// DatasetFile is the dataset's location inside a data directory.
const DatasetFile = "as2org/as2org.jsonl"

// WriteDir writes the dataset under dir.
func (d *Dataset) WriteDir(dir string) error {
	if err := fsx.WriteFile(filepath.Join(dir, DatasetFile), d.Write); err != nil {
		return fmt.Errorf("as2org: %w", err)
	}
	return nil
}

// LoadDir reads the dataset under dir. A missing file yields an empty
// dataset (every origin ASN becomes a singleton cluster). The context
// is honored before the read starts.
func LoadDir(ctx context.Context, dir string) (*Dataset, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, DatasetFile)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return NewDataset(), nil
	}
	if err != nil {
		return nil, fmt.Errorf("as2org: open %s: %w", path, err)
	}
	defer f.Close()
	return Read(f)
}
