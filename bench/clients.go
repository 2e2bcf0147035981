package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"net/url"
	"strings"
	"time"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/whois"
)

// verifyEvery is the sampling of the full comparison: every response
// gets the cheap checks, one in verifyEvery is compared field by field
// with the answer computed in-process from the same snapshot.
const verifyEvery = 64

// answer is what the reference dataset says a query must return.
type answer struct {
	outcome string // match | covering | no_match
	prefix  string
	owner   string
	cluster string
}

// expect mirrors the front ends' lookup order on ref: address -> LPM;
// prefix -> exact, then covering; org -> cluster ID (HTTP only), then
// owner name.
func expect(ref *prefix2org.Dataset, q *query, clusterIDs bool) answer {
	fromRec := func(outcome string, rec *prefix2org.Record) answer {
		return answer{outcome: outcome, prefix: rec.Prefix.String(), owner: rec.DirectOwner}
	}
	switch q.Kind {
	case kindAddr:
		if a, err := netip.ParseAddr(q.Text); err == nil {
			if rec, ok := ref.LookupAddr(a); ok {
				return fromRec("match", rec)
			}
		}
	case kindPrefix:
		if p, err := netip.ParsePrefix(q.Text); err == nil {
			if rec, ok := ref.Lookup(p); ok {
				return fromRec("match", rec)
			}
			if rec, ok := ref.LookupCovering(p); ok {
				return fromRec("covering", rec)
			}
		}
	case kindOrg:
		if clusterIDs {
			if c, ok := ref.ClusterByID(q.Text); ok {
				return answer{outcome: "match", cluster: c.ID}
			}
		}
		if c, ok := ref.ClusterOfOwner(q.Text); ok {
			return answer{outcome: "match", cluster: c.ID}
		}
	}
	return answer{outcome: "no_match"}
}

// refFor returns the reference dataset for the snapshot version a
// response names. Static daemons have one; under reload the version
// alternates between the two step directories.
type refFor func(version uint64) *prefix2org.Dataset

func staticRef(ds *prefix2org.Dataset) refFor {
	return func(uint64) *prefix2org.Dataset { return ds }
}

// wireAnswer is the part of the HTTP success envelope that is compared.
type wireAnswer struct {
	Outcome         string `json:"outcome"`
	SnapshotVersion uint64 `json:"snapshot_version"`
	Record          *struct {
		Prefix      string `json:"prefix"`
		DirectOwner string `json:"direct_owner"`
	} `json:"record"`
	Cluster *struct {
		ID string `json:"id"`
	} `json:"cluster"`
}

// httpWorker is one keep-alive connection to a p2o-httpd.
type httpWorker struct {
	client *http.Client
	host   string
	header http.Header
	buf    bytes.Buffer
}

func newHTTPWorker(host string) *httpWorker {
	return &httpWorker{
		host:   host,
		header: http.Header{},
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
	}
}

func (h *httpWorker) close() { h.client.CloseIdleConnections() }

// roundTrip sends one request and leaves the body in h.buf.
func (h *httpWorker) roundTrip(ctx context.Context, method, path, rawPath string, body io.Reader, size int64) (*http.Response, error) {
	req := (&http.Request{
		Method: method,
		URL:    &url.URL{Scheme: "http", Host: h.host, Path: path, RawPath: rawPath},
		Host:   h.host,
		Header: h.header,
		Proto:  "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
	}).WithContext(ctx)
	if body != nil {
		req.Body = io.NopCloser(body)
		req.ContentLength = size
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, err
	}
	h.buf.Reset()
	_, err = h.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 500 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(h.buf.Bytes()))
	}
	return resp, nil
}

// get runs one single-query exchange: status and body are checked on
// every response, the decoded answer against ref when full is set.
func (h *httpWorker) get(ctx context.Context, q *query, full bool, ref refFor) error {
	path, raw := q.httpPath()
	resp, err := h.roundTrip(ctx, http.MethodGet, path, raw, nil, 0)
	if err != nil {
		return err
	}
	if resp.StatusCode != int(q.Status) {
		return fmt.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, q.Status)
	}
	if h.buf.Len() == 0 {
		return fmt.Errorf("GET %s: empty body", path)
	}
	if !full || q.Status != http.StatusOK {
		return nil
	}
	var got wireAnswer
	if err := json.Unmarshal(h.buf.Bytes(), &got); err != nil {
		return fmt.Errorf("GET %s: decode: %w", path, err)
	}
	want := expect(ref(got.SnapshotVersion), q, true)
	var have answer
	have.outcome = got.Outcome
	if got.Record != nil {
		have.prefix, have.owner = got.Record.Prefix, got.Record.DirectOwner
	}
	if got.Cluster != nil {
		have.cluster = got.Cluster.ID
	}
	if have != want {
		return fmt.Errorf("GET %s (snapshot v%d): got %+v, want %+v", path, got.SnapshotVersion, have, want)
	}
	return nil
}

// bulkBody is one pre-generated NDJSON request body and the answer
// expected on each of its lines.
type bulkBody struct {
	data []byte
	want []answer
}

// bulkLineStride: every bulk response is checked for status, snapshot
// header and line count; every bulkLineStride-th line is decoded and
// compared (a different residue each request, so all lines get their
// turn).
const bulkLineStride = 256

type bulkLine struct {
	Outcome     string `json:"outcome"`
	Prefix      string `json:"prefix"`
	DirectOwner string `json:"direct_owner"`
}

func makeBulkBodies(g *queryGen, bodies, lines int) []bulkBody {
	out := make([]bulkBody, bodies)
	for b := range out {
		var buf bytes.Buffer
		want := make([]answer, lines)
		for i := 0; i < lines; i++ {
			q := query{Kind: kindAddr, Text: g.addr().String()}
			buf.WriteString(q.Text)
			buf.WriteByte('\n')
			want[i] = expect(g.ref, &q, false)
		}
		out[b] = bulkBody{data: buf.Bytes(), want: want}
	}
	return out
}

// post runs one bulk round trip and returns the verified line count.
func (h *httpWorker) post(ctx context.Context, body *bulkBody, i int) (int, error) {
	resp, err := h.roundTrip(ctx, http.MethodPost, "/v1/bulk", "", bytes.NewReader(body.data), int64(len(body.data)))
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("POST /v1/bulk: status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-P2O-Snapshot") == "" {
		return 0, fmt.Errorf("POST /v1/bulk: no X-P2O-Snapshot header")
	}
	data := h.buf.Bytes()
	if n := bytes.Count(data, []byte{'\n'}); n != len(body.want) {
		return 0, fmt.Errorf("POST /v1/bulk: %d result lines, sent %d", n, len(body.want))
	}
	for ln, pick := 0, i%bulkLineStride; len(data) > 0; ln++ {
		nl := bytes.IndexByte(data, '\n')
		if ln%bulkLineStride == pick {
			var got bulkLine
			if err := json.Unmarshal(data[:nl], &got); err != nil {
				return 0, fmt.Errorf("bulk line %d: decode: %w", ln, err)
			}
			want := body.want[ln]
			if got.Outcome != want.outcome || got.Prefix != want.prefix || got.DirectOwner != want.owner {
				return 0, fmt.Errorf("bulk line %d: got %+v, want %+v", ln, got, want)
			}
		}
		data = data[nl+1:]
	}
	return len(body.want), nil
}

// whoisWorker makes one RFC 3912 exchange per query — dial, send the
// line, read to EOF — with the repository's own WHOIS client.
type whoisWorker struct {
	client whois.Client
}

func newWhoisWorker(addr string) *whoisWorker {
	return &whoisWorker{client: whois.Client{Addr: addr, Timeout: 30 * time.Second}}
}

const whoisBanner = "% Prefix2Org whois"

func (w *whoisWorker) query(ctx context.Context, q *query, full bool, ref *prefix2org.Dataset) error {
	body, err := w.client.Query(ctx, q.Text)
	if err != nil {
		return err
	}
	if !strings.HasPrefix(body, whoisBanner) {
		return fmt.Errorf("whois %q: no banner in %q", q.Text, body)
	}
	noMatch := strings.Contains(body, "% no match")
	if strings.Contains(body, "% error") || noMatch != (q.Status == http.StatusNotFound) {
		return fmt.Errorf("whois %q: unexpected answer %q", q.Text, body)
	}
	if !full || noMatch {
		return nil
	}
	want := expect(ref, q, false)
	var have answer
	have.outcome = "match"
	for _, line := range strings.Split(body, "\r\n") {
		key, val, _ := strings.Cut(line, ":")
		val = strings.TrimSpace(val)
		switch key {
		case "prefix":
			if q.Kind != kindOrg {
				have.prefix = val
			}
		case "direct-owner":
			have.owner = val
		case "cluster":
			have.cluster = val
		case "% note":
			have.outcome = "covering"
		}
	}
	if have != want {
		return fmt.Errorf("whois %q: got %+v, want %+v", q.Text, have, want)
	}
	return nil
}

// whoisStream adapts the cold distribution to what whoisd accepts: org
// queries by owner name only (whoisd has no cluster-ID lookup), and no
// name that whoisd would parse as a prefix.
func whoisStream(g *queryGen, n int) []query {
	out := make([]query, n)
	for i := range out {
		q := g.next()
		for q.Kind == kindOrg {
			if _, ok := g.ref.ClusterOfOwner(q.Text); ok && !strings.Contains(q.Text, "/") {
				break
			}
			q = g.next()
		}
		out[i] = q
	}
	return out
}
