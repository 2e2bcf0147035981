package httpd

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/prefix2org/prefix2org/internal/store"
)

// TestBulkUnderReloadChurn hammers the bulk endpoint from concurrent
// clients while a reloader goroutine swaps snapshots as fast as it can.
// Run under -race (make race does), this is the e2e proof of the
// snapshot-pinning contract: every response must carry exactly one
// result line per input line, every line must be well-formed JSON, and
// the whole response must be answered from the single snapshot named in
// its X-P2O-Snapshot header — no dropped lines, no torn writes, no
// version mixing.
func TestBulkUnderReloadChurn(t *testing.T) {
	ds := dataset(t)
	st := store.New(&store.Snapshot{Dataset: ds})
	s := New(st, Config{BulkMaxLines: 10000, BulkFlushEvery: 8, CacheSize: 256})
	defer s.Close()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// One request body: a mix of matches, misses, and garbage.
	var sb strings.Builder
	const perRequest = 120
	for i := 0; i < perRequest; i++ {
		switch i % 3 {
		case 0:
			sb.WriteString(ds.Records[i%len(ds.Records)].Prefix.Addr().String())
		case 1:
			sb.WriteString("192.0.2.1")
		default:
			sb.WriteString("not-an-ip")
		}
		sb.WriteByte('\n')
	}
	body := sb.String()

	// Reloader churn: swap continuously until the clients finish.
	done := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for {
			select {
			case <-done:
				return
			default:
				st.Swap(&store.Snapshot{Dataset: ds})
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	const clients, requests = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				resp, err := http.Post("http://"+addr+"/v1/bulk", "application/x-ndjson", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				version := resp.Header.Get("X-P2O-Snapshot")
				lines := 0
				sc := bufio.NewScanner(resp.Body)
				for sc.Scan() {
					var m map[string]any
					if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
						t.Errorf("torn output line under churn: %v\n%s", err, sc.Text())
						break
					}
					if _, ok := m["outcome"]; !ok {
						t.Errorf("line missing outcome: %s", sc.Text())
					}
					lines++
				}
				err = sc.Err()
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if lines != perRequest {
					t.Errorf("response has %d lines, want %d (version %s)", lines, perRequest, version)
				}
				if version == "" {
					t.Error("missing X-P2O-Snapshot header")
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	swapper.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSingleQueryUnderChurn interleaves cached single queries with
// swaps: every response must be internally consistent and the cache's
// version guard must never serve a body rendered from an older
// snapshot than the envelope claims.
func TestSingleQueryUnderChurn(t *testing.T) {
	ds := dataset(t)
	st := store.New(&store.Snapshot{Dataset: ds})
	s := New(st, Config{CacheSize: 128})
	defer s.Close()
	h := s.Handler()
	addr := ds.Records[0].Prefix.Addr().String()

	done := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for {
			select {
			case <-done:
				return
			default:
				st.Swap(&store.Snapshot{Dataset: ds})
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				code, body := get(t, h, "/v1/addr/"+addr)
				if code != http.StatusOK {
					t.Errorf("status %d under churn: %v", code, body)
					return
				}
				if body["outcome"] != "match" {
					t.Errorf("outcome %v under churn", body["outcome"])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	swapper.Wait()
}
