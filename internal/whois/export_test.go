package whois

import (
	"net/netip"

	"github.com/prefix2org/prefix2org/internal/alloc"
)

// CheckLoadDir lets the external test package, which may import the
// synthetic-world generator, hold a directory load to the reference.
var CheckLoadDir = checkLoadDir

// entryView is an Entry with its strings read back through its Flat:
// the form tests compare and print.
type entryView struct {
	Prefix          netip.Prefix
	Registry        alloc.Registry
	Status, OrgName string
	Updated         int64
}

// views reads every entry of f back.
func views(f *Flat) []entryView {
	out := make([]entryView, len(f.Entries()))
	for i := range f.Entries() {
		e := &f.Entries()[i]
		out[i] = entryView{e.Prefix(), e.Registry(), f.Status(e), f.OrgName(e), e.Updated}
	}
	return out
}
