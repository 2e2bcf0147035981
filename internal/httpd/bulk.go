package httpd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/netip"
	"strconv"
	"time"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/daemon"
	"github.com/prefix2org/prefix2org/internal/netx"
	"github.com/prefix2org/prefix2org/internal/obs"
)

// The streaming bulk endpoint: POST /v1/bulk, NDJSON in, NDJSON out.
// Each input line names one IP address — a JSON string ("198.51.100.7"),
// an object ({"q":"198.51.100.7"}), or a bare token — and produces
// exactly one output line in the same order. One request pins one
// snapshot: the X-P2O-Snapshot response header names the version every
// line was answered from, no matter how many swaps happen mid-stream.
//
// The per-line fast path is allocation-free: the scanner token is
// sliced, the address parses via netx.ParseAddrBytes, the lookup hits
// the frozen LPM index, and the result is appended to a per-request
// buffer by hand. The alloc guard (alloc_guard_test.go) pins this.

const (
	// bulkMaxLineBytes bounds one input line; a line longer than this
	// fails the scan and ends the stream with a terminal error line.
	bulkMaxLineBytes = 1 << 20
	// bulkScanBuf is the scanner's initial buffer.
	bulkScanBuf = 64 << 10
	// bulkWriteBuf is the buffered writer in front of the response.
	bulkWriteBuf = 32 << 10
)

// bulkStallTimeout ends a bulk stream whose client makes no progress —
// sends no body bytes, or takes no response bytes — for this long, so a
// stalled client cannot pin a retired snapshot forever. It is whoisd's
// per-connection bound. A var only so tests can shorten it.
var bulkStallTimeout = 30 * time.Second

func (s *Server) handleBulk(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeErrorEnvelope(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST with an NDJSON body")
		return
	}
	sp := telemetry.StartSpan()
	// One snapshot pin per bulk request: the stream may run for a long
	// time across swaps, and every line answers from — and keeps alive —
	// this one snapshot.
	snap, release := s.store.Acquire()
	defer release()
	info := obs.QueryInfo{Start: start, Text: "bulk", Type: "bulk", SnapshotVersion: snap.Version}
	if snap.Dataset == nil {
		writeErrorEnvelope(w, http.StatusServiceUnavailable, "not_ready", "no dataset loaded yet")
		info.Outcome = daemon.OutcomeError
		telemetry.Finish(sp, info)
		return
	}
	// Bulk is genuinely full-duplex: the client may still be sending
	// lines while results stream back. Without this, net/http closes
	// the request body at the first response flush and a large request
	// dies mid-stream with "invalid Read on closed Body". (HTTP/2 and
	// httptest recorders don't support the call, nor the deadlines
	// below, and don't need them.)
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()

	// Headers must be final before the first flush; the snapshot
	// version rides a header because the stream is line-per-line from
	// here on.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-P2O-Snapshot", strconv.FormatUint(snap.Version, 10))

	sc := bufio.NewScanner(stallReader{r.Body, rc})
	sc.Buffer(make([]byte, 0, bulkScanBuf), bulkMaxLineBytes)
	bw := bufio.NewWriterSize(stallWriter{w, rc}, bulkWriteBuf)
	out := make([]byte, 0, 512)

	info.Outcome = outcomeOK
	lines := 0
scan:
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if lines >= s.cfg.BulkMaxLines {
			// The status is already on the wire; the over-limit signal
			// is a terminal error line, then the stream ends.
			mBulkTruncated.Inc()
			out = marshalError(http.StatusRequestEntityTooLarge, "too_many_lines",
				"request exceeded "+strconv.Itoa(s.cfg.BulkMaxLines)+" lines; raise -bulk-max-lines or split the request")
			info.Outcome = outcomeTruncated
			_, _ = bw.Write(out)
			break
		}
		lines++
		out = appendBulkLine(snap.Dataset, sp, line, out[:0])
		if _, err := bw.Write(out); err != nil {
			info.Outcome = outcomeWriteError
			mServeErrors.Inc()
			break
		}
		sp.Mark(obs.PhaseWrite)
		if lines%s.cfg.BulkFlushEvery == 0 {
			if err := bw.Flush(); err != nil {
				info.Outcome = outcomeWriteError
				mServeErrors.Inc()
				break scan
			}
			_ = rc.Flush()
		}
	}
	if err := sc.Err(); err != nil && info.Outcome == outcomeOK {
		// Body read failure (client hangup, oversized line): emit a
		// terminal error line so the truncation is visible client-side.
		mServeErrors.Inc()
		logger.Warn("bulk body read failed", "err", err, "lines", lines)
		_, _ = bw.Write(marshalError(http.StatusBadRequest, "read_error", err.Error()))
		info.Outcome = daemon.OutcomeError
	}
	if err := bw.Flush(); err != nil && info.Outcome == outcomeOK {
		info.Outcome = outcomeWriteError
		mServeErrors.Inc()
	}
	sp.Mark(obs.PhaseWrite)
	telemetry.Finish(sp, info)
}

// stallReader and stallWriter move the connection's read or write
// deadline bulkStallTimeout ahead before each Read or Write: a stalled
// stream fails there and ends, dropping its pin. The scanner and the
// buffered writer move whole chunks, so this is per chunk, not per line.
type stallReader struct {
	io.Reader
	rc *http.ResponseController
}

func (s stallReader) Read(p []byte) (int, error) {
	_ = s.rc.SetReadDeadline(time.Now().Add(bulkStallTimeout))
	return s.Reader.Read(p)
}

type stallWriter struct {
	io.Writer
	rc *http.ResponseController
}

func (s stallWriter) Write(p []byte) (int, error) {
	_ = s.rc.SetWriteDeadline(time.Now().Add(bulkStallTimeout))
	return s.Writer.Write(p)
}

// appendBulkLine answers one NDJSON input line entirely against ds,
// appending the result line (newline-terminated) to out and returning
// the grown buffer. With a warmed buffer the whole path — classify,
// parse, lookup, encode — performs zero heap allocations; the guard in
// alloc_guard_test.go and BenchmarkBulkLookup pin that.
//
//p2o:hotpath
func appendBulkLine(ds *prefix2org.Dataset, sp *obs.QuerySpan, line, out []byte) []byte {
	q, ok := extractQuery(line)
	var addr netip.Addr
	if ok {
		addr, ok = netx.ParseAddrBytes(q)
	}
	sp.Mark(obs.PhaseParse)
	if !ok {
		mBulkLinesBad.Inc()
		echo := q
		if echo == nil {
			echo = line
		}
		if len(echo) > 128 {
			echo = echo[:128]
		}
		out = append(out, `{"q":`...)
		out = appendJSONEcho(out, echo)
		out = append(out, `,"outcome":"bad_input"}`...)
		out = append(out, '\n')
		sp.Mark(obs.PhaseEncode)
		return out
	}
	rec, found := ds.LookupAddr(addr)
	sp.Mark(obs.PhaseLookup)
	out = append(out, `{"q":`...)
	out = appendJSONEcho(out, q)
	if !found {
		mBulkLinesNoMatch.Inc()
		out = append(out, `,"outcome":"no_match"}`...)
	} else {
		mBulkLinesMatch.Inc()
		out = append(out, `,"outcome":"match","prefix":"`...)
		out = rec.Prefix.AppendTo(out)
		out = append(out, `","direct_owner":`...)
		out = appendJSONString(out, rec.DirectOwner)
		out = append(out, `,"final_cluster":`...)
		out = appendJSONString(out, rec.FinalCluster)
		out = append(out, '}')
	}
	out = append(out, '\n')
	sp.Mark(obs.PhaseEncode)
	return out
}

// extractQuery pulls the query token out of one trimmed NDJSON line:
// a JSON string, an object carrying a "q" member, or a bare token. The
// returned slice aliases line on the fast paths; lines with JSON
// escapes fall back to encoding/json (allocating — rare by design).
//
//p2o:hotpath
func extractQuery(line []byte) ([]byte, bool) {
	switch line[0] {
	case '"':
		if len(line) < 2 || line[len(line)-1] != '"' {
			return extractQuerySlow(line)
		}
		v := line[1 : len(line)-1]
		if bytes.IndexByte(v, '\\') >= 0 || bytes.IndexByte(v, '"') >= 0 {
			return extractQuerySlow(line)
		}
		return v, true
	case '{':
		if bytes.IndexByte(line, '\\') >= 0 {
			return extractQuerySlow(line)
		}
		// Scan for a `"q"` member key followed by a string value; a
		// `"q"` that turns out to be something else (a value, a prefix
		// of another key) just moves the scan forward.
		rest := line
		off := 0
		for {
			i := bytes.Index(rest, []byte(`"q"`))
			if i < 0 {
				return extractQuerySlow(line)
			}
			j := off + i + 3
			for j < len(line) && (line[j] == ' ' || line[j] == '\t') {
				j++
			}
			if j < len(line) && line[j] == ':' {
				j++
				for j < len(line) && (line[j] == ' ' || line[j] == '\t') {
					j++
				}
				if j < len(line) && line[j] == '"' {
					if k := bytes.IndexByte(line[j+1:], '"'); k >= 0 {
						return line[j+1 : j+1+k], true
					}
				}
			}
			off += i + 3
			rest = line[off:]
		}
	default:
		return line, true
	}
}

// extractQuerySlow is the correctness backstop for lines the byte
// scanner will not touch: full JSON decoding, at the cost of per-line
// allocations.
func extractQuerySlow(line []byte) ([]byte, bool) {
	if line[0] == '{' {
		var obj struct {
			Q string `json:"q"`
		}
		if json.Unmarshal(line, &obj) != nil || obj.Q == "" {
			return nil, false
		}
		return []byte(obj.Q), true
	}
	var s string
	if json.Unmarshal(line, &s) != nil {
		return nil, false
	}
	return []byte(s), true
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string. Dataset strings are
// valid UTF-8 (they came through the WHOIS parsers), so bytes >= 0x20
// other than the two JSON metacharacters pass through raw.
//
//p2o:hotpath
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c < 0x20:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// appendJSONEcho appends client-supplied bytes as a JSON string,
// escaping everything outside printable ASCII byte by byte — the input
// is untrusted and may not be valid UTF-8, and the echo must never
// corrupt the NDJSON stream.
//
//p2o:hotpath
func appendJSONEcho(dst, b []byte) []byte {
	dst = append(dst, '"')
	for _, c := range b {
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c < 0x20 || c >= 0x7f:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}
