package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// buildDaemons compiles the real daemon binaries into binDir with the
// toolchain and cache of the calling environment. The go command's own
// cache makes every build after the first a sub-second no-op.
func buildDaemons(ctx context.Context, binDir string, names ...string) error {
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the module root: %w", err)
	}
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	args := []string{"build", "-o", binDir + string(filepath.Separator)}
	for _, n := range names {
		args = append(args, "./cmd/"+n)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, out)
	}
	return nil
}

// daemon is one child process under test, listening on loopback.
type daemon struct {
	cmd    *exec.Cmd
	addr   string // query listener
	admin  string // admin listener (/metrics, /healthz, /reload)
	stderr bytes.Buffer
	exited chan struct{}
	err    error
}

// freeAddrs reserves n distinct loopback ports and releases them for
// the daemon to bind. All are held until the last is chosen, so no two
// are the same.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// startDaemon launches bin with default flags plus the listeners, the
// log level and the given data source, and returns once /healthz
// answers 200 — the store holds its first snapshot. The process is
// killed when ctx ends, and by stop.
func startDaemon(ctx context.Context, bin string, source ...string) (*daemon, error) {
	d := &daemon{exited: make(chan struct{})}
	addrs, err := freeAddrs(2)
	if err != nil {
		return nil, err
	}
	d.addr, d.admin = addrs[0], addrs[1]
	args := append([]string{"-listen", d.addr, "-metrics-listen", d.admin, "-log-level", "warn"}, source...)
	d.cmd = exec.CommandContext(ctx, bin, args...)
	d.cmd.Stderr = &d.stderr
	d.cmd.WaitDelay = 2 * time.Second
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	if err := d.waitReady(ctx); err != nil {
		d.stop()
		return nil, fmt.Errorf("%s %s: %w\n%s", bin, strings.Join(args, " "), err, d.stderr.String())
	}
	return d, nil
}

func (d *daemon) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(60 * time.Second)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("exited before ready: %v", d.err)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.admin+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("not ready after 60s")
}

// stop kills the daemon and waits until it has ended.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	d.cmd.Process.Kill()
	<-d.exited
}

func (d *daemon) rssMB() (float64, error) { return peakRSSMB(d.cmd.Process.Pid) }

// get fetches an admin endpoint and returns the body; any status other
// than 200 is an error carrying the body.
func (d *daemon) get(ctx context.Context, path string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.admin+path, nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return string(body), nil
}

// metrics scrapes /metrics into a map keyed by the sample's full name,
// labels included, exactly as the text format prints it.
func (d *daemon) metrics(ctx context.Context) (map[string]float64, error) {
	body, err := d.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}
