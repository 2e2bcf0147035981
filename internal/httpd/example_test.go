package httpd_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"

	prefix2org "github.com/prefix2org/prefix2org"
	"github.com/prefix2org/prefix2org/internal/httpd"
	"github.com/prefix2org/prefix2org/internal/synth"
)

// buildExampleDataset runs the pipeline over a small synthetic world —
// a stand-in for a real data directory.
func buildExampleDataset() (*prefix2org.Dataset, error) {
	w, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "p2o-httpd-example")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := w.WriteDir(dir); err != nil {
		return nil, err
	}
	return prefix2org.BuildFromDir(context.Background(), dir, prefix2org.Options{})
}

// ExampleServer_bulk shows the bulk NDJSON round-trip: start a server,
// POST one address per line, read one result line back per input line,
// in order. Input lines may be bare addresses, JSON strings, or
// {"q": ...} objects; the X-P2O-Snapshot header names the dataset
// version every line was answered from.
func ExampleServer_bulk() {
	ds, err := buildExampleDataset()
	if err != nil {
		fmt.Println("build:", err)
		return
	}
	srv := httpd.NewStatic(ds)
	defer srv.Close()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		fmt.Println("start:", err)
		return
	}

	// Three line forms; the middle one is outside the synthetic world.
	body := ds.Records[0].Prefix.Addr().String() + "\n" +
		"\"192.0.2.1\"\n" +
		`{"q":"not-an-ip"}` + "\n"
	resp, err := http.Post("http://"+addr+"/v1/bulk", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		fmt.Println("post:", err)
		return
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			Outcome string `json:"outcome"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			fmt.Println("bad line:", err)
			return
		}
		fmt.Println(line.Outcome)
	}
	// Output:
	// match
	// no_match
	// bad_input
}
