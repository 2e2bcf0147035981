// Package rtr is the RPKI-to-Router protocol (RFC 8210, version 1) over
// TCP, kept only as the benchmark's VRP probe: bench/ derives the VRP
// set of a data directory's RPKI repository, serves it from a Server on
// a loopback port, and times a Client's Reset Query sync of it (the
// rtr.* layer metrics). No daemon serves it, and the pipeline reads no
// VRP: it uses the RPKI repository's certificates, and its ROAs only in
// the §8.2 case study.
//
// The subset implemented is the session-less transport over one fixed
// VRP set: Reset Query, Serial Query (answered with Cache Reset when the
// serial is stale, or an empty delta when current), Cache Response, IPvX
// Prefix PDUs, End of Data, and Error Report.
package rtr

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sort"
	"time"

	"github.com/prefix2org/prefix2org/internal/daemon"
	"github.com/prefix2org/prefix2org/internal/obs"
	"github.com/prefix2org/prefix2org/internal/rpki"
)

// logger reports the listener's failed accepts.
var logger = obs.Logger("rtr")

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

// Server serves one fixed VRP snapshot over RTR, under one session and
// one serial: nothing replaces its set once built.
type Server struct {
	vrps []VRP
	lis  daemon.Listener
}

// The session and serial a Server answers under.
const (
	serverSession = 0x2bad
	serverSerial  = 1
)

// NewServer builds a server over the repository's ROA set.
func NewServer(repo *rpki.Repository) *Server {
	return &Server{vrps: VRPsFromRepository(repo)}
}

// Start listens on addr and returns the bound address; Close stops the
// server. ctx is unused.
func (s *Server) Start(_ context.Context, addr string) (string, error) {
	return s.lis.Listen(addr, new(obs.Counter), logger, s.handle)
}

// Close stops the listener and waits for connections to finish.
func (s *Server) Close() error { return s.lis.Close() }

// handle serves one router session: a loop of PDUs until the peer hangs
// up, errors, or sends something this cache does not answer.
func (s *Server) handle(conn net.Conn) {
	for {
		_ = conn.SetDeadline(time.Now().Add(60 * time.Second))
		pduType, _, body, err := readPDU(conn)
		if err != nil {
			return
		}
		switch pduType {
		case pduResetQuery:
			if err := s.sendSnapshot(conn); err != nil {
				return
			}
		case pduSerialQuery:
			if len(body) != 4 {
				_ = writePDU(conn, pduErrorReport, 3, nil) // invalid request
				return
			}
			if binary.BigEndian.Uint32(body) != serverSerial {
				// No delta history kept: ask the router to reset.
				if err := writePDU(conn, pduCacheReset, 0, nil); err != nil {
					return
				}
				continue
			}
			// Up to date: empty delta.
			if err := writePDU(conn, pduCacheResponse, serverSession, nil); err != nil {
				return
			}
			if err := sendEndOfData(conn); err != nil {
				return
			}
		default:
			_ = writePDU(conn, pduErrorReport, 5, nil) // unsupported PDU
			return
		}
	}
}

func (s *Server) sendSnapshot(conn net.Conn) error {
	if err := writePDU(conn, pduCacheResponse, serverSession, nil); err != nil {
		return err
	}
	for _, v := range s.vrps {
		t, body := prefixPDU(v)
		if err := writePDU(conn, t, 0, body); err != nil {
			return err
		}
	}
	return sendEndOfData(conn)
}

func sendEndOfData(conn net.Conn) error {
	body := make([]byte, 16)
	binary.BigEndian.PutUint32(body[0:4], serverSerial)
	binary.BigEndian.PutUint32(body[4:8], 3600)   // refresh interval
	binary.BigEndian.PutUint32(body[8:12], 600)   // retry interval
	binary.BigEndian.PutUint32(body[12:16], 7200) // expire interval
	return writePDU(conn, pduEndOfData, serverSession, body)
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
