package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"
)

// WriteText renders the registry in a Prometheus-style plain-text form.
// Metric families are sorted by name; each histogram family emits its
// cumulative buckets in ascending bound order with the +Inf bucket
// terminal, then the _sum and _count lines:
//
//	whoisd_queries_total 42
//	whoisd_query_seconds_bucket{le="0.001"} 1
//	...
//	whoisd_query_seconds_bucket{le="+Inf"} 3
//	whoisd_query_seconds_sum 0.004
//	whoisd_query_seconds_count 3
//
// The output is byte-for-byte deterministic for a given registry state,
// so scrapers and golden tests can rely on the ordering.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	// One family per scalar metric or histogram, interleaved in one
	// name-sorted sequence; a histogram family keeps its bucket order
	// (ascending by construction in Snapshot, +Inf last).
	families := make(map[string][]string, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for name, v := range s.Counters {
		families[name] = []string{fmt.Sprintf("%s %d", name, v)}
	}
	for name, v := range s.Gauges {
		families[name] = []string{fmt.Sprintf("%s %s", name, formatFloat(v))}
	}
	for name, h := range s.Histograms {
		lines := make([]string, 0, len(h.Buckets)+2)
		for _, b := range h.Buckets {
			lines = append(lines, fmt.Sprintf("%s_bucket{le=%q} %d", name, b.Le, b.Count))
		}
		lines = append(lines, fmt.Sprintf("%s_sum %s", name, formatFloat(h.Sum)))
		lines = append(lines, fmt.Sprintf("%s_count %d", name, h.Count))
		families[name] = lines
	}
	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, l := range families[name] {
			if _, err := fmt.Fprintln(w, l); err != nil {
				return err
			}
		}
	}
	return nil
}

// Handler serves the registry at a single endpoint: plain text by
// default, JSON when the request carries ?format=json or an
// application/json Accept header.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" ||
			strings.Contains(req.Header.Get("Accept"), "application/json") {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(r.Snapshot())
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = r.WriteText(w)
	})
}

// Admin is the opt-in observability listener: /metrics, /healthz, the
// net/http/pprof endpoints under /debug/pprof/, and any extra Routes
// the daemon mounts (p2o-whoisd and p2o-httpd mount /reload here).
type Admin struct {
	lis  net.Listener
	srv  *http.Server
	done chan struct{}
}

// Route is an extra admin endpoint mounted by ServeAdmin alongside the
// built-in handlers.
type Route struct {
	Pattern string
	Handler http.Handler
}

// ReadyHandler is a readiness probe: 200 "ok" while ready() is true,
// 503 "not ready" otherwise. Daemons mount it at /healthz (overriding
// the always-200 default) wired to their snapshot store, so a process
// that is up but has not installed its first real snapshot is not yet
// routed traffic — the readiness half of the readiness/liveness split
// (liveness is the admin listener answering at all).
func ReadyHandler(ready func() bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "not ready")
			return
		}
		fmt.Fprintln(w, "ok")
	})
}

// ServeAdmin starts the admin listener on addr (":0" for an ephemeral
// port) exposing reg plus any extra routes. An extra route may claim a
// built-in pattern (daemons mount ReadyHandler at /healthz); the extra
// route then replaces the default. Close releases the listener.
func ServeAdmin(addr string, reg *Registry, extra ...Route) (*Admin, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listen %s: %w", addr, err)
	}
	claimed := map[string]bool{}
	for _, rt := range extra {
		claimed[rt.Pattern] = true
	}
	mux := http.NewServeMux()
	if !claimed["/metrics"] {
		mux.Handle("/metrics", reg.Handler())
	}
	if !claimed["/healthz"] {
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "ok")
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, rt := range extra {
		mux.Handle(rt.Pattern, rt.Handler)
	}
	a := &Admin{
		lis:  lis,
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(a.done)
		// ErrServerClosed (and the listener-closed error) are the normal
		// shutdown path.
		_ = a.srv.Serve(lis)
	}()
	return a, nil
}

// Addr returns the bound listener address.
func (a *Admin) Addr() string { return a.lis.Addr().String() }

// Close stops the admin listener.
func (a *Admin) Close() error {
	err := a.srv.Close()
	<-a.done
	return err
}
