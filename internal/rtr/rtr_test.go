package rtr

import (
	"context"
	"io"
	"net"
	"net/netip"
	"testing"
	"time"

	"github.com/prefix2org/prefix2org/internal/alloc"
	"github.com/prefix2org/prefix2org/internal/netx"
	"github.com/prefix2org/prefix2org/internal/rpki"
	"github.com/prefix2org/prefix2org/internal/synth"
)

func testRepo(t *testing.T) *rpki.Repository {
	t.Helper()
	r := rpki.NewRepository()
	r.AddCert(rpki.Certificate{SKI: "TA", Subject: "ta", Registry: alloc.ARIN,
		Resources: []netip.Prefix{netx.MustParse("10.0.0.0/8"), netx.MustParse("2001:db8::/32")}, TrustAnchor: true})
	r.AddCert(rpki.Certificate{SKI: "M", AKI: "TA", Subject: "member", Registry: alloc.ARIN,
		Resources: []netip.Prefix{netx.MustParse("10.0.0.0/16"), netx.MustParse("2001:db8::/40")}})
	r.AddROA(rpki.ROA{Prefix: netx.MustParse("10.0.0.0/16"), MaxLength: 24, ASN: 64500, CertSKI: "M"})
	r.AddROA(rpki.ROA{Prefix: netx.MustParse("2001:db8::/40"), MaxLength: 48, ASN: 64501, CertSKI: "M"})
	r.AddROA(rpki.ROA{Prefix: netx.MustParse("10.0.0.0/16"), MaxLength: 24, ASN: 64500, CertSKI: "M"}) // duplicate
	if err := r.Build(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestVRPsFromRepositoryDedupSorted(t *testing.T) {
	vrps := VRPsFromRepository(testRepo(t))
	if len(vrps) != 2 {
		t.Fatalf("vrps = %v, want 2 (duplicate collapsed)", vrps)
	}
	if !vrps[0].Prefix.Addr().Is4() {
		t.Error("v4 VRP should sort first")
	}
}

func TestClientSync(t *testing.T) {
	srv := NewServer(testRepo(t))
	addr, err := srv.Start(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &Client{Addr: addr, Timeout: 5 * time.Second}
	vrps, serial, err := c.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if serial != serverSerial {
		t.Errorf("serial = %d, want %d", serial, serverSerial)
	}
	if len(vrps) != 2 {
		t.Fatalf("synced %d VRPs, want 2", len(vrps))
	}
	want4 := VRP{Prefix: netx.MustParse("10.0.0.0/16"), MaxLength: 24, ASN: 64500}
	want6 := VRP{Prefix: netx.MustParse("2001:db8::/40"), MaxLength: 48, ASN: 64501}
	if vrps[0] != want4 || vrps[1] != want6 {
		t.Errorf("vrps = %+v", vrps)
	}
}

func TestSerialQueryFlow(t *testing.T) {
	srv := NewServer(testRepo(t))
	addr, err := srv.Start(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &Client{Addr: addr, Timeout: 5 * time.Second}
	_, serial, err := c.Sync()
	if err != nil {
		t.Fatal(err)
	}
	// Current serial: up to date.
	ok, err := c.CheckSerial(serial)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("current serial reported stale")
	}
	// Stale serial: cache reset.
	ok, err = c.CheckSerial(serial + 10)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("stale serial reported current")
	}
}

// TestUnsupportedPDUAnswersErrorReport: a PDU the cache does not serve
// (here a Serial Notify, which flows cache to router) gets an Error
// Report with code 5, and the session ends.
func TestUnsupportedPDUAnswersErrorReport(t *testing.T) {
	srv := NewServer(testRepo(t))
	addr, err := srv.Start(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writePDU(conn, pduSerialNotify, 0, nil); err != nil {
		t.Fatal(err)
	}
	pduType, code, _, err := readPDU(conn)
	if err != nil {
		t.Fatal(err)
	}
	if pduType != pduErrorReport || code != 5 {
		t.Errorf("answer = PDU %d code %d, want Error Report (%d) code 5", pduType, code, pduErrorReport)
	}
	if _, _, _, err := readPDU(conn); err != io.EOF {
		t.Errorf("after the Error Report: %v, want the session closed (EOF)", err)
	}
}

// End-to-end with the synthetic world: the RTR-synced VRP set must agree
// exactly with the world's ROA set, and a router using it would validate
// announcements identically to the repository.
func TestSyncAgainstSyntheticWorld(t *testing.T) {
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(w.RPKI)
	addr, err := srv.Start(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &Client{Addr: addr, Timeout: 10 * time.Second}
	vrps, _, err := c.Sync()
	if err != nil {
		t.Fatal(err)
	}
	want := VRPsFromRepository(w.RPKI)
	if len(vrps) != len(want) {
		t.Fatalf("synced %d VRPs, want %d", len(vrps), len(want))
	}
	for i := range want {
		if vrps[i] != want[i] {
			t.Fatalf("VRP %d = %+v, want %+v", i, vrps[i], want[i])
		}
	}
	// RFC 6811 validation through the synced set matches the repository
	// for a sample of routed prefixes.
	validateVia := func(vrps []VRP, p netip.Prefix, origin uint32) rpki.ValidationState {
		covered := false
		for _, v := range vrps {
			if !netx.Contains(v.Prefix, p) {
				continue
			}
			covered = true
			if v.ASN == origin && p.Bits() <= v.MaxLength {
				return rpki.StateValid
			}
		}
		if covered {
			return rpki.StateInvalid
		}
		return rpki.StateNotFound
	}
	n := 0
	for _, e := range w.RIB {
		origin, ok := (&e).Origin()
		if !ok {
			continue
		}
		if got, want := validateVia(vrps, e.Prefix, origin), w.RPKI.Validate(e.Prefix, origin); got != want {
			t.Fatalf("validation diverged for %s AS%d: rtr %s vs repo %s", e.Prefix, origin, got, want)
		}
		n++
		if n >= 500 {
			break
		}
	}
}

func TestClientAgainstDeadCache(t *testing.T) {
	c := &Client{Addr: "127.0.0.1:1", Timeout: 300 * time.Millisecond}
	if _, _, err := c.Sync(); err == nil {
		t.Error("sync against closed port succeeded")
	}
	if _, err := c.CheckSerial(1); err == nil {
		t.Error("serial check against closed port succeeded")
	}
}

func mustPrefix(s string) netip.Prefix { return netx.MustParse(s) }
