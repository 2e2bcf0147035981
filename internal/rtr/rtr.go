// Package rtr implements the RPKI-to-Router protocol (RFC 8210, version
// 1) over TCP: the channel through which the validated ROA payloads
// (VRPs) the paper analyzes in §8.2 actually reach routers.
//
// The server publishes the ROA set of an rpki.Repository; the client
// performs a Reset Query synchronization and returns the VRP set. The
// subset implemented is the session-less transport: Reset Query, Serial
// Query (answered with Cache Reset when the serial is stale, or an empty
// delta when current), Cache Response, IPvX Prefix PDUs, End of Data, and
// Error Report.
package rtr

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sort"
	"sync"
	"time"

	"github.com/prefix2org/prefix2org/internal/daemon"
	"github.com/prefix2org/prefix2org/internal/obs"
	"github.com/prefix2org/prefix2org/internal/rpki"
	"github.com/prefix2org/prefix2org/internal/store"
)

// Server metrics, registered on the process-wide registry.
var (
	mResetQueries  = obs.Default().Counter(obs.Label("rtr_pdus_total", "type", "reset_query"))
	mSerialQueries = obs.Default().Counter(obs.Label("rtr_pdus_total", "type", "serial_query"))
	mUnsupported   = obs.Default().Counter(obs.Label("rtr_pdus_total", "type", "unsupported"))
	mSnapshots     = obs.Default().Counter("rtr_snapshots_sent_total")
	mSerialSkips   = obs.Default().Counter("rtr_serial_skips_total")
	mAcceptErrors  = obs.Default().Counter("rtr_accept_errors_total")
	mServeErrors   = obs.Default().Counter("rtr_serve_errors_total")
	mSnapshotTime  = obs.Default().Histogram("rtr_snapshot_seconds", obs.DefBuckets)
	mVRPs          = obs.Default().Gauge("rtr_vrps")

	// Session-level health: how many routers are connected right now, how
	// far behind the cache the last polling router was, how often routers
	// are forced through a full resync, and why sessions die.
	mSessionsActive = obs.Default().Gauge("rtr_sessions_active")
	mSerialLag      = obs.Default().Gauge("rtr_session_serial_lag")
	mResyncs        = obs.Default().Counter("rtr_resyncs_total")
	mSLOViolations  = obs.Default().Counter("rtr_slo_violations_total")
	mPDUTime        = obs.Default().Histogram("rtr_pdu_seconds", obs.DefBuckets)

	mDropReadError  = obs.Default().Counter(obs.Label("rtr_dropped_total", "reason", "read_error"))
	mDropBadLength  = obs.Default().Counter(obs.Label("rtr_dropped_total", "reason", "bad_length"))
	mDropWriteError = obs.Default().Counter(obs.Label("rtr_dropped_total", "reason", "write_error"))
	mDropUnsupPDU   = obs.Default().Counter(obs.Label("rtr_dropped_total", "reason", "unsupported_pdu"))

	logger = obs.Logger("rtr")

	// telemetry accounts each served PDU exchange: the rolling quantile
	// window behind rtr_pdu_seconds_p* and the /debug/queries rings.
	telemetry = obs.NewQueryTelemetry(obs.QueryTelemetryConfig{
		Latency:       mPDUTime,
		SLOViolations: mSLOViolations,
		Logger:        logger,
	})
)

func init() {
	obs.Default().GaugeFunc("rtr_pdu_seconds_p50", func() float64 { return telemetry.Quantile(0.50) })
	obs.Default().GaugeFunc("rtr_pdu_seconds_p99", func() float64 { return telemetry.Quantile(0.99) })
}

// Telemetry returns the package's PDU telemetry: daemons wire the
// -slo-target / -slow-query-threshold / -query-sample flags and mount
// its DebugHandler at /debug/queries.
func Telemetry() *obs.QueryTelemetry { return telemetry }

// Protocol constants (RFC 8210).
const (
	versionV1 = 1

	pduSerialNotify  = 0
	pduSerialQuery   = 1
	pduResetQuery    = 2
	pduCacheResponse = 3
	pduIPv4Prefix    = 4
	pduIPv6Prefix    = 6
	pduEndOfData     = 7
	pduCacheReset    = 8
	pduErrorReport   = 10

	flagAnnounce = 1
)

// VRP is one Validated ROA Payload.
type VRP struct {
	Prefix    netip.Prefix
	MaxLength int
	ASN       uint32
}

// VRPsFromRepository converts a repository's ROAs into a deterministic
// VRP list (duplicates collapsed).
func VRPsFromRepository(repo *rpki.Repository) []VRP {
	seen := map[VRP]bool{}
	var out []VRP
	for _, roa := range repo.ROAs {
		v := VRP{Prefix: roa.Prefix.Masked(), MaxLength: roa.MaxLength, ASN: roa.ASN}
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if c := a.Prefix.Addr().Compare(b.Prefix.Addr()); c != 0 {
			return c < 0
		}
		if a.Prefix.Bits() != b.Prefix.Bits() {
			return a.Prefix.Bits() < b.Prefix.Bits()
		}
		if a.MaxLength != b.MaxLength {
			return a.MaxLength < b.MaxLength
		}
		return a.ASN < b.ASN
	})
	return out
}

// --- wire encoding -----------------------------------------------------------

func writePDU(w io.Writer, pduType byte, sessionOrFlags uint16, body []byte) error {
	hdr := make([]byte, 8)
	hdr[0] = versionV1
	hdr[1] = pduType
	binary.BigEndian.PutUint16(hdr[2:4], sessionOrFlags)
	binary.BigEndian.PutUint32(hdr[4:8], uint32(8+len(body)))
	if _, err := w.Write(append(hdr, body...)); err != nil {
		return err
	}
	return nil
}

func readPDU(r io.Reader) (pduType byte, sessionOrFlags uint16, body []byte, err error) {
	hdr := make([]byte, 8)
	if _, err = io.ReadFull(r, hdr); err != nil {
		return 0, 0, nil, err
	}
	if hdr[0] != versionV1 {
		return 0, 0, nil, fmt.Errorf("rtr: unsupported protocol version %d", hdr[0])
	}
	length := binary.BigEndian.Uint32(hdr[4:8])
	if length < 8 || length > 1<<16 {
		return 0, 0, nil, fmt.Errorf("rtr: bad PDU length %d", length)
	}
	body = make([]byte, length-8)
	if _, err = io.ReadFull(r, body); err != nil {
		return 0, 0, nil, err
	}
	return hdr[1], binary.BigEndian.Uint16(hdr[2:4]), body, nil
}

func prefixPDU(v VRP) (pduType byte, body []byte) {
	if v.Prefix.Addr().Is4() {
		body = make([]byte, 12)
		body[0] = flagAnnounce
		body[1] = byte(v.Prefix.Bits())
		body[2] = byte(v.MaxLength)
		a := v.Prefix.Addr().As4()
		copy(body[4:8], a[:])
		binary.BigEndian.PutUint32(body[8:12], v.ASN)
		return pduIPv4Prefix, body
	}
	body = make([]byte, 24)
	body[0] = flagAnnounce
	body[1] = byte(v.Prefix.Bits())
	body[2] = byte(v.MaxLength)
	a := v.Prefix.Addr().As16()
	copy(body[4:20], a[:])
	binary.BigEndian.PutUint32(body[20:24], v.ASN)
	return pduIPv6Prefix, body
}

func parsePrefixPDU(pduType byte, body []byte) (VRP, bool, error) {
	var v VRP
	switch pduType {
	case pduIPv4Prefix:
		if len(body) != 12 {
			return v, false, fmt.Errorf("rtr: IPv4 prefix PDU length %d", len(body))
		}
		var a [4]byte
		copy(a[:], body[4:8])
		v.Prefix = netip.PrefixFrom(netip.AddrFrom4(a), int(body[1])).Masked()
		v.MaxLength = int(body[2])
		v.ASN = binary.BigEndian.Uint32(body[8:12])
	case pduIPv6Prefix:
		if len(body) != 24 {
			return v, false, fmt.Errorf("rtr: IPv6 prefix PDU length %d", len(body))
		}
		var a [16]byte
		copy(a[:], body[4:20])
		v.Prefix = netip.PrefixFrom(netip.AddrFrom16(a), int(body[1])).Masked()
		v.MaxLength = int(body[2])
		v.ASN = binary.BigEndian.Uint32(body[20:24])
	default:
		return v, false, fmt.Errorf("rtr: not a prefix PDU: %d", pduType)
	}
	return v, body[0]&flagAnnounce != 0, nil
}

// --- server ------------------------------------------------------------------

// Server serves one VRP snapshot over RTR.
type Server struct {
	mu      sync.RWMutex
	repo    *rpki.Repository // what vrps was derived from
	vrps    []VRP
	serial  uint32
	session uint16

	baseCtx context.Context

	lis     daemon.Listener
	untrack func() // detaches from the store Track subscribed to
}

// NewServer builds a server over the repository's current ROA set.
func NewServer(repo *rpki.Repository) *Server {
	vrps := VRPsFromRepository(repo)
	mVRPs.Set(float64(len(vrps)))
	return &Server{repo: repo, vrps: vrps, serial: 1, session: 0x2bad}
}

// Update replaces the served VRP set (a new validation run), bumping the
// serial.
func (s *Server) Update(repo *rpki.Repository) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.repo = repo
	s.vrps = VRPsFromRepository(repo)
	s.serial++
	mVRPs.Set(float64(len(s.vrps)))
	logger.Info("vrp set updated", "vrps", len(s.vrps), "serial", s.serial)
}

// Serial returns the current serial number.
func (s *Server) Serial() uint32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.serial
}

// Track subscribes the server to a snapshot store: every swap that
// carries an RPKI repository re-derives the VRP set and bumps the
// serial, so routers polling with Serial Queries learn to resync — the
// hot-reload path replacing manual Update calls. A delta-built swap
// whose changeset proves the VRP set untouched keeps the current serial
// (rtr_serial_skips_total), so routers are not forced through a full
// resync for a WHOIS-only change, and so does a swap publishing the
// very repository already served — the daemon's first Swap, which comes
// after the server was built from that snapshot and bound. The returned
// cancel detaches the server from the store; Close does the same.
func (s *Server) Track(st *store.Store) (cancel func()) {
	s.untrack = st.Subscribe(func(snap *store.Snapshot) {
		if snap.Repo == nil {
			return
		}
		if snap.Changes != nil && !snap.Changes.VRPsChanged {
			mSerialSkips.Inc()
			logger.Debug("vrp set unchanged by delta swap; serial kept", "serial", s.Serial())
			return
		}
		s.mu.RLock()
		served := s.repo
		s.mu.RUnlock()
		if snap.Repo != served {
			s.Update(snap.Repo)
		}
	})
	return s.untrack
}

// Start listens on addr and returns the bound address. ctx is the base
// context sampled PDU spans ride on; it does not stop the server (Close
// does).
func (s *Server) Start(ctx context.Context, addr string) (string, error) {
	s.baseCtx = ctx
	return s.lis.Listen(addr, mAcceptErrors, logger, s.handle)
}

// Close detaches the server from a tracked store, stops the listener and
// waits for connections to finish.
func (s *Server) Close() error {
	if s.untrack != nil {
		s.untrack()
	}
	return s.lis.Close()
}

// handle serves one router session: a loop of PDUs until the peer hangs
// up or errors. Every exchange is accounted by the package telemetry
// (one "query" = one inbound PDU and its full response), and session
// lifetime shows up in rtr_sessions_active.
func (s *Server) handle(conn net.Conn) {
	mSessionsActive.Add(1)
	defer mSessionsActive.Add(-1)
	sessionStart := time.Now()
	var pdus int
	defer func() {
		logger.Debug("session closed",
			"remote", conn.RemoteAddr().String(), "pdus", pdus,
			"duration", time.Since(sessionStart))
	}()
	for {
		_ = conn.SetDeadline(time.Now().Add(60 * time.Second))
		pduType, _, body, err := readPDU(conn)
		if err != nil {
			// EOF is the normal end of a session; anything else is a
			// protocol or transport failure worth surfacing.
			if err != io.EOF {
				mServeErrors.Inc()
				mDropReadError.Inc()
				logger.Warn("pdu read failed", "remote", conn.RemoteAddr().String(), "err", err)
			}
			return
		}
		pdus++
		start := time.Now()
		ctx, sp := telemetry.StartSpan(s.baseCtx)
		sp.Mark(obs.PhaseParse)
		_ = ctx // spans stay on this frame: PDU handling never fans out
		switch pduType {
		case pduResetQuery:
			mResetQueries.Inc()
			if err := s.sendSnapshot(conn, sp); err != nil {
				mServeErrors.Inc()
				mDropWriteError.Inc()
				logger.Warn("snapshot send failed", "remote", conn.RemoteAddr().String(), "err", err)
				telemetry.Finish(sp, obs.QueryInfo{
					Start: start, Text: "reset_query", Type: "reset_query",
					Outcome: "write_error", SnapshotVersion: uint64(s.Serial())})
				return
			}
			mSnapshots.Inc()
			mSnapshotTime.ObserveSince(start)
			telemetry.Finish(sp, obs.QueryInfo{
				Start: start, Text: "reset_query", Type: "reset_query",
				Outcome: "snapshot", SnapshotVersion: uint64(s.Serial())})
		case pduSerialQuery:
			mSerialQueries.Inc()
			if len(body) != 4 {
				mDropBadLength.Inc()
				_ = writePDU(conn, pduErrorReport, 3, nil) // invalid request
				telemetry.Finish(sp, obs.QueryInfo{
					Start: start, Text: "serial_query", Type: "serial_query",
					Outcome: "bad_length", SnapshotVersion: uint64(s.Serial())})
				return
			}
			clientSerial := binary.BigEndian.Uint32(body)
			s.mu.RLock()
			current := s.serial
			session := s.session
			s.mu.RUnlock()
			sp.Mark(obs.PhaseLookup)
			// Serial lag is how far the polling router trails the cache —
			// persistent lag means routers are not resyncing after swaps.
			mSerialLag.Set(float64(current - clientSerial))
			if clientSerial == current {
				// Up to date: empty delta.
				if err := writePDU(conn, pduCacheResponse, session, nil); err != nil {
					mDropWriteError.Inc()
					return
				}
				if err := s.sendEndOfData(conn); err != nil {
					mDropWriteError.Inc()
					return
				}
				sp.Mark(obs.PhaseWrite)
				telemetry.Finish(sp, obs.QueryInfo{
					Start: start, Text: "serial_query", Type: "serial_query",
					Outcome: "current", SnapshotVersion: uint64(current)})
			} else {
				// No delta history kept: ask the router to reset.
				mResyncs.Inc()
				if err := writePDU(conn, pduCacheReset, 0, nil); err != nil {
					mDropWriteError.Inc()
					return
				}
				sp.Mark(obs.PhaseWrite)
				telemetry.Finish(sp, obs.QueryInfo{
					Start: start, Text: "serial_query", Type: "serial_query",
					Outcome: "resync", SnapshotVersion: uint64(current)})
			}
		default:
			mUnsupported.Inc()
			mDropUnsupPDU.Inc()
			logger.Warn("unsupported pdu", "remote", conn.RemoteAddr().String(), "pdu", pduType)
			_ = writePDU(conn, pduErrorReport, 5, nil) // unsupported PDU
			telemetry.Finish(sp, obs.QueryInfo{
				Start: start, Text: "unsupported", Type: "unsupported",
				Outcome: "unsupported_pdu", SnapshotVersion: uint64(s.Serial())})
			return
		}
	}
}

func (s *Server) sendSnapshot(conn net.Conn, sp *obs.QuerySpan) error {
	s.mu.RLock()
	vrps := s.vrps
	session := s.session
	s.mu.RUnlock()
	sp.Mark(obs.PhaseLookup)
	if err := writePDU(conn, pduCacheResponse, session, nil); err != nil {
		return err
	}
	for _, v := range vrps {
		t, body := prefixPDU(v)
		if err := writePDU(conn, t, 0, body); err != nil {
			return err
		}
	}
	if err := s.sendEndOfData(conn); err != nil {
		return err
	}
	sp.Mark(obs.PhaseWrite)
	return nil
}

func (s *Server) sendEndOfData(conn net.Conn) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	body := make([]byte, 16)
	binary.BigEndian.PutUint32(body[0:4], s.serial)
	binary.BigEndian.PutUint32(body[4:8], 3600)   // refresh interval
	binary.BigEndian.PutUint32(body[8:12], 600)   // retry interval
	binary.BigEndian.PutUint32(body[12:16], 7200) // expire interval
	return writePDU(conn, pduEndOfData, s.session, body)
}

// --- client ------------------------------------------------------------------

// Client synchronizes VRPs from an RTR cache.
type Client struct {
	Addr    string
	Timeout time.Duration
}

// Sync performs a Reset Query and returns the full VRP set plus the
// cache's serial.
func (c *Client) Sync() ([]VRP, uint32, error) {
	timeout := c.Timeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	conn, err := net.DialTimeout("tcp", c.Addr, timeout)
	if err != nil {
		return nil, 0, fmt.Errorf("rtr: dial %s: %w", c.Addr, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(timeout))
	if err := writePDU(conn, pduResetQuery, 0, nil); err != nil {
		return nil, 0, fmt.Errorf("rtr: reset query: %w", err)
	}
	pduType, _, _, err := readPDU(conn)
	if err != nil {
		return nil, 0, err
	}
	if pduType != pduCacheResponse {
		return nil, 0, fmt.Errorf("rtr: expected Cache Response, got PDU %d", pduType)
	}
	var vrps []VRP
	for {
		pduType, _, body, err := readPDU(conn)
		if err != nil {
			return nil, 0, err
		}
		switch pduType {
		case pduIPv4Prefix, pduIPv6Prefix:
			v, announce, err := parsePrefixPDU(pduType, body)
			if err != nil {
				return nil, 0, err
			}
			if announce {
				vrps = append(vrps, v)
			}
		case pduEndOfData:
			if len(body) < 4 {
				return nil, 0, fmt.Errorf("rtr: truncated End of Data")
			}
			return vrps, binary.BigEndian.Uint32(body[0:4]), nil
		case pduErrorReport:
			return nil, 0, fmt.Errorf("rtr: cache sent Error Report")
		default:
			return nil, 0, fmt.Errorf("rtr: unexpected PDU %d during sync", pduType)
		}
	}
}

// CheckSerial asks the cache whether serial is current. It returns true
// when up to date, false when the router must resynchronize.
func (c *Client) CheckSerial(serial uint32) (bool, error) {
	timeout := c.Timeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	conn, err := net.DialTimeout("tcp", c.Addr, timeout)
	if err != nil {
		return false, fmt.Errorf("rtr: dial %s: %w", c.Addr, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(timeout))
	body := make([]byte, 4)
	binary.BigEndian.PutUint32(body, serial)
	if err := writePDU(conn, pduSerialQuery, 0, body); err != nil {
		return false, err
	}
	pduType, _, _, err := readPDU(conn)
	if err != nil {
		return false, err
	}
	switch pduType {
	case pduCacheReset:
		return false, nil
	case pduCacheResponse:
		// Drain to End of Data.
		for {
			pduType, _, _, err := readPDU(conn)
			if err != nil {
				return false, err
			}
			if pduType == pduEndOfData {
				return true, nil
			}
		}
	default:
		return false, fmt.Errorf("rtr: unexpected PDU %d", pduType)
	}
}
