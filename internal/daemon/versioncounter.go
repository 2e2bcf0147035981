package daemon

import (
	"strconv"
	"sync/atomic"

	"github.com/prefix2org/prefix2org/internal/obs"
)

// VersionCounter ties query traffic to the snapshot version that
// answered it — <daemon>_queries_by_snapshot_total{version="N"} — so a
// reload's effect on traffic is directly observable on /metrics. It
// caches the labeled counter of the version last seen, so the
// steady-state path is one pointer load and an atomic increment; the
// registry lookup and label rendering run only when a reload swaps the
// version.
type VersionCounter struct {
	// Counter registers the instrument of one version — a closure, so
	// the metric's literal name stays at the front end's registration
	// site.
	Counter func(version string) *obs.Counter
	cur     atomic.Pointer[versionedCounter]
}

type versionedCounter struct {
	version uint64
	c       *obs.Counter
}

// Inc counts one query answered from the given snapshot version.
//
//p2o:hotpath
func (v *VersionCounter) Inc(version uint64) {
	if cur := v.cur.Load(); cur != nil && cur.version == version {
		cur.c.Inc()
		return
	}
	c := v.Counter(strconv.FormatUint(version, 10))
	v.cur.Store(&versionedCounter{version: version, c: c})
	c.Inc()
}
