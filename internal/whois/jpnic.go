package whois

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"strings"
	"sync"
	"time"

	"github.com/prefix2org/prefix2org/internal/alloc"
)

// JPNIC's bulk WHOIS data does not include the allocation type of a block
// (§4.2): the pipeline must perform an individual WHOIS query per address
// block to retrieve it. This file implements the three pieces of that
// path: the bulk parser, an RFC 3912 WHOIS client, and a server that the
// synthetic world (and tests) stand up to answer those queries the way
// whois.nic.ad.jp would.

// ParseJPNICBulk parses JPNIC's bulk flavour: one pipe-separated record
// per line, without the allocation type.
//
//	203.180.0.0/16|EXAMPLE-NET|Example Communications KK|20240501
//
// Records come back with Status == ""; EnrichJPNIC fills it in via
// individual queries.
func ParseJPNICBulk(r io.Reader) (*Database, error) {
	db := NewDatabase()
	if err := scanJPNICBulk(r, fieldCopier{}, db.collect); err != nil {
		return nil, err
	}
	return db, nil
}

// scanJPNICBulk is the JPNIC flavour's reader: it calls emit with every
// line as a Record, reused from call to call, Prefixes included — emit
// copies what it keeps.
func scanJPNICBulk(r io.Reader, fc fieldCopier, emit func(*Record) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var rec Record
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if n := bytes.Count(line, []byte("|")) + 1; n < 3 {
			return fmt.Errorf("whois: jpnic line %d: want at least 3 fields, got %d", lineNo, n)
		}
		spec, rest, _ := bytes.Cut(line, []byte("|"))
		netName, rest, _ := bytes.Cut(rest, []byte("|"))
		orgName, rest, more := bytes.Cut(rest, []byte("|"))
		ps, err := appendBlockSpec(rec.Prefixes[:0], spec)
		if err != nil {
			return fmt.Errorf("whois: jpnic line %d: %w", lineNo, err)
		}
		rec = Record{
			Prefixes: ps,
			Registry: alloc.JPNIC,
			NetName:  fc.extra(bytes.TrimSpace(netName)),
			OrgName:  fc.kept(bytes.TrimSpace(orgName)),
			Country:  "JP",
		}
		if more {
			updated, _, _ := bytes.Cut(rest, []byte("|"))
			if t, err := parseTimeBytes(updated); err == nil {
				rec.Updated = t
			}
		}
		if err := emit(&rec); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("whois: jpnic scan: %w", err)
	}
	return nil
}

// WriteJPNICBulk serializes db in the JPNIC bulk flavour (allocation types
// are intentionally omitted — that is the JPNIC quirk being modelled).
func WriteJPNICBulk(w io.Writer, db *Database) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# JPNIC bulk snapshot (synthetic); allocation types via whois queries")
	for _, rec := range db.Records {
		for _, p := range rec.Prefixes {
			fmt.Fprintf(bw, "%s|%s|%s|%s\n", p, rec.NetName, rec.OrgName, rec.Updated.UTC().Format("20060102"))
		}
	}
	return bw.Flush()
}

// Client performs individual RFC 3912 WHOIS queries: connect, send the
// query line, read until EOF.
type Client struct {
	// Addr is the host:port of the WHOIS server.
	Addr string
	// Timeout bounds each query (dial + read). Zero means 10 seconds.
	Timeout time.Duration
	// Dial allows tests to substitute the transport. Nil uses net.Dialer.
	Dial func(ctx context.Context, network, addr string) (net.Conn, error)
}

func (c *Client) dial(ctx context.Context) (net.Conn, error) {
	if c.Dial != nil {
		return c.Dial(ctx, "tcp", c.Addr)
	}
	var d net.Dialer
	return d.DialContext(ctx, "tcp", c.Addr)
}

// Query sends q and returns the raw response body.
func (c *Client) Query(ctx context.Context, q string) (string, error) {
	timeout := c.Timeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	conn, err := c.dial(ctx)
	if err != nil {
		return "", fmt.Errorf("whois: dial %s: %w", c.Addr, err)
	}
	defer conn.Close()
	if dl, ok := ctx.Deadline(); ok {
		if err := conn.SetDeadline(dl); err != nil {
			return "", fmt.Errorf("whois: set deadline: %w", err)
		}
	}
	if _, err := io.WriteString(conn, q+"\r\n"); err != nil {
		return "", fmt.Errorf("whois: send query: %w", err)
	}
	body, err := io.ReadAll(conn)
	if err != nil {
		return "", fmt.Errorf("whois: read response: %w", err)
	}
	return string(body), nil
}

// QueryAllocationType queries the JPNIC-style server for prefix and
// extracts the allocation-type field from the response.
func (c *Client) QueryAllocationType(ctx context.Context, prefix netip.Prefix) (string, error) {
	body, err := c.Query(ctx, prefix.String())
	if err != nil {
		return "", err
	}
	status, ok := extractAllocationType(body)
	if !ok {
		return "", fmt.Errorf("whois: no allocation type in response for %s", prefix)
	}
	return status, nil
}

func extractAllocationType(body string) (string, bool) {
	for _, line := range strings.Split(body, "\n") {
		if i := strings.Index(line, "[Allocation Type]"); i >= 0 {
			return strings.TrimSpace(line[i+len("[Allocation Type]"):]), true
		}
	}
	return "", false
}

// EnrichJPNIC fills in the Status of every JPNIC record in db by querying
// the given client, mimicking the paper's per-block queries against the
// JPNIC WHOIS service. Queries for the blocks run with bounded
// concurrency; the first error aborts the remaining work.
func EnrichJPNIC(ctx context.Context, db *Database, c *Client) error {
	type job struct{ idx int }
	var jobs []job
	for i := range db.Records {
		r := &db.Records[i]
		if r.Registry == alloc.JPNIC && r.Status == "" && len(r.Prefixes) > 0 {
			jobs = append(jobs, job{i})
		}
	}
	const workers = 8
	sem := make(chan struct{}, workers)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	for _, j := range jobs {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				return
			}
			status, err := c.QueryAllocationType(ctx, db.Records[idx].Prefixes[0])
			if err != nil {
				mu.Lock()
				if firstErr == nil && !errors.Is(err, context.Canceled) {
					firstErr = err
					cancel()
				}
				mu.Unlock()
				return
			}
			db.Records[idx].Status = status
		}(j.idx)
	}
	wg.Wait()
	return firstErr
}

// Server is a minimal RFC 3912 WHOIS responder that answers JPNIC-style
// block queries with the block's allocation type. The synthetic world
// registers every JPNIC block before serving.
type Server struct {
	mu     sync.RWMutex
	blocks map[netip.Prefix]serverBlock

	lis  net.Listener
	done chan struct{}
	wg   sync.WaitGroup
}

type serverBlock struct {
	orgName string
	netName string
	status  string
}

// NewServer returns a server with an empty block table.
func NewServer() *Server {
	return &Server{blocks: map[netip.Prefix]serverBlock{}, done: make(chan struct{})}
}

// Register adds or replaces the served data for prefix.
func (s *Server) Register(prefix netip.Prefix, orgName, netName, status string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blocks[prefix.Masked()] = serverBlock{orgName: orgName, netName: netName, status: status}
}

// Start begins serving on addr (e.g. "127.0.0.1:0") and returns the bound
// address.
func (s *Server) Start(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("whois: listen %s: %w", addr, err)
	}
	s.lis = lis
	s.wg.Add(1)
	go s.acceptLoop()
	return lis.Addr().String(), nil
}

// Close stops the listener and waits for in-flight connections.
func (s *Server) Close() error {
	close(s.done)
	var err error
	if s.lis != nil {
		err = s.lis.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				// Transient accept error; keep serving.
				continue
			}
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	//p2olint:ignore determinism TCP deadline on a live whois session, never part of build output
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	rd := bufio.NewReader(conn)
	line, err := rd.ReadString('\n')
	if err != nil && line == "" {
		return
	}
	q := strings.TrimSpace(line)
	var resp strings.Builder
	resp.WriteString("% JPNIC WHOIS (synthetic)\r\n")
	p, perr := netip.ParsePrefix(q)
	if perr != nil {
		fmt.Fprintf(&resp, "%% error: unparseable query %q\r\n", q)
	} else {
		s.mu.RLock()
		b, ok := s.blocks[p.Masked()]
		s.mu.RUnlock()
		if !ok {
			resp.WriteString("% no match\r\n")
		} else {
			fmt.Fprintf(&resp, "a. [Network Number]     %s\r\n", p.Masked())
			fmt.Fprintf(&resp, "b. [Network Name]       %s\r\n", b.netName)
			fmt.Fprintf(&resp, "f. [Organization]       %s\r\n", b.orgName)
			fmt.Fprintf(&resp, "m. [Allocation Type]    %s\r\n", b.status)
		}
	}
	_, _ = io.WriteString(conn, resp.String())
}
