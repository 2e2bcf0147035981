package rtr

import (
	"context"
	"net"
	"net/netip"
	"testing"
	"time"

	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/diff"
	"github.com/prefix2org/prefix2org/internal/rpki"
	"github.com/prefix2org/prefix2org/internal/store"
)

func metricsRepo(t *testing.T) *rpki.Repository {
	t.Helper()
	repo := rpki.NewRepository()
	res := []netip.Prefix{netip.MustParsePrefix("198.51.100.0/24")}
	repo.AddCert(rpki.Certificate{SKI: "TA:X", Subject: "ta", Registry: alloc.ARIN,
		Resources: []netip.Prefix{netip.MustParsePrefix("198.51.0.0/16")}, TrustAnchor: true})
	repo.AddCert(rpki.Certificate{SKI: "M:1", AKI: "TA:X", Subject: "member", Registry: alloc.ARIN,
		Resources: res})
	repo.AddROA(rpki.ROA{Prefix: res[0], MaxLength: 24, ASN: 64500, CertSKI: "M:1"})
	if err := repo.Build(); err != nil {
		t.Fatal(err)
	}
	return repo
}

// TestSyncMovesPDUCounters asserts that a full client synchronization is
// accounted: one reset query, one snapshot, one latency observation.
func TestSyncMovesPDUCounters(t *testing.T) {
	srv := NewServer(metricsRepo(t))
	addr, err := srv.Start(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	resetBefore := mResetQueries.Value()
	snapBefore := mSnapshots.Value()
	latBefore := mSnapshotTime.Count()

	c := &Client{Addr: addr}
	vrps, serial, err := c.Sync()
	// The server counts a snapshot after writing End of Data, which is
	// when the client returns: Close waits for the session goroutine, so
	// the counters are final once it has.
	srv.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(vrps) != 1 || serial != 1 {
		t.Fatalf("sync = %d vrps, serial %d", len(vrps), serial)
	}
	if d := mResetQueries.Value() - resetBefore; d != 1 {
		t.Errorf("reset query counter moved by %d, want 1", d)
	}
	if d := mSnapshots.Value() - snapBefore; d != 1 {
		t.Errorf("snapshot counter moved by %d, want 1", d)
	}
	if d := mSnapshotTime.Count() - latBefore; d != 1 {
		t.Errorf("snapshot latency count moved by %d, want 1", d)
	}
	if mVRPs.Value() < 1 {
		t.Errorf("vrp gauge = %v, want >= 1", mVRPs.Value())
	}
}

// TestSessionMetrics covers the session-level health surface: serial
// lag and resync accounting when a router polls with a stale serial,
// PDU telemetry on every exchange, and drop-reason counters on an
// unsupported PDU.
func TestSessionMetrics(t *testing.T) {
	srv := NewServer(metricsRepo(t))
	addr, err := srv.Start(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resyncsBefore := mResyncs.Value()
	pdusBefore := mPDUTime.Count()
	c := &Client{Addr: addr}

	// Current serial: no resync, zero lag.
	ok, err := c.CheckSerial(srv.Serial())
	if err != nil || !ok {
		t.Fatalf("CheckSerial(current) = %v, %v", ok, err)
	}
	if lag := mSerialLag.Value(); lag != 0 {
		t.Errorf("serial lag after current poll = %v, want 0", lag)
	}

	// Stale serial: the cache must demand a resync and record the lag.
	srv.Update(metricsRepo(t)) // serial 1 -> 2
	ok, err = c.CheckSerial(1)
	if err != nil || ok {
		t.Fatalf("CheckSerial(stale) = %v, %v; want resync", ok, err)
	}
	if d := mResyncs.Value() - resyncsBefore; d != 1 {
		t.Errorf("resyncs moved by %d, want 1", d)
	}
	if lag := mSerialLag.Value(); lag != 1 {
		t.Errorf("serial lag after stale poll = %v, want 1", lag)
	}
	// An exchange is accounted after its answer is written, which is
	// when the client returns — give the session goroutine its moment.
	deadline := time.Now().Add(5 * time.Second)
	for mPDUTime.Count()-pdusBefore < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("pdu latency count moved by %d, want >= 2", mPDUTime.Count()-pdusBefore)
		}
		time.Sleep(time.Millisecond)
	}

	// An unsupported PDU drops the session with a reason.
	dropBefore := mDropUnsupPDU.Value()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writePDU(conn, pduSerialNotify, 0, nil); err != nil {
		t.Fatal(err)
	}
	for mDropUnsupPDU.Value() == dropBefore {
		if time.Now().After(deadline) {
			t.Fatal("unsupported-pdu drop counter never moved")
		}
		time.Sleep(time.Millisecond)
	}

	// All sessions above have ended; the active gauge must drain to 0.
	for mSessionsActive.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("rtr_sessions_active = %v, want 0 after sessions end", mSessionsActive.Value())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTrackSerialSkip pins the delta-aware serial policy: a tracked
// swap whose changeset proves the VRP set untouched keeps the current
// serial (so polling routers are not forced through a resync), a
// VRPsChanged changeset bumps it, a changeset-less swap (full rebuild,
// nothing proven) bumps it conservatively, and a swap publishing the
// very repository already served (the daemon's first Swap, after the
// server was built from that snapshot) changes nothing.
func TestTrackSerialSkip(t *testing.T) {
	repo := metricsRepo(t)
	srv := NewServer(repo)
	st := store.New(&store.Snapshot{Repo: repo})
	cancel := srv.Track(st)
	defer cancel()

	base := srv.Serial()
	skipsBefore := mSerialSkips.Value()

	st.Swap(&store.Snapshot{Repo: repo, Changes: &diff.Changeset{}})
	if got := srv.Serial(); got != base {
		t.Errorf("serial after vrps-unchanged delta swap = %d, want %d (kept)", got, base)
	}
	if d := mSerialSkips.Value() - skipsBefore; d != 1 {
		t.Errorf("serial skip counter moved by %d, want 1", d)
	}

	st.Swap(&store.Snapshot{Repo: repo})
	if got := srv.Serial(); got != base {
		t.Errorf("serial after re-publishing the served repository = %d, want %d (kept)", got, base)
	}

	st.Swap(&store.Snapshot{Repo: metricsRepo(t), Changes: &diff.Changeset{VRPsChanged: true}})
	if got := srv.Serial(); got != base+1 {
		t.Errorf("serial after vrps-changed delta swap = %d, want %d", got, base+1)
	}

	st.Swap(&store.Snapshot{Repo: metricsRepo(t)})
	if got := srv.Serial(); got != base+2 {
		t.Errorf("serial after changeset-less swap = %d, want %d", got, base+2)
	}

	// A repo-less swap (dataset-only snapshot) never touches the serial.
	st.Swap(&store.Snapshot{})
	if got := srv.Serial(); got != base+2 {
		t.Errorf("serial after repo-less swap = %d, want %d", got, base+2)
	}
}
