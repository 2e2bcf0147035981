package daemon_test

import (
	"bufio"
	"bytes"
	"io"
	"log/slog"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/prefix2org/prefix2org/internal/daemon"
	"github.com/prefix2org/prefix2org/internal/obs"
)

// TestListenerSurvivesHandlerPanic: a handler that panics on one marker
// line ends only its own connection. The panic is counted in the serve
// errors and logged with its stack, the next connection is still
// answered, and Close returns.
func TestListenerSurvivesHandlerPanic(t *testing.T) {
	var l daemon.Listener
	var log bytes.Buffer
	acceptErrors, serveErrors := new(obs.Counter), new(obs.Counter)
	addr, err := l.Listen("127.0.0.1:0", acceptErrors, serveErrors, slog.New(slog.NewTextHandler(&log, nil)), func(conn net.Conn) {
		line, _ := bufio.NewReader(conn).ReadString('\n')
		if line == "panic\n" {
			panic("handler panic on the marker line")
		}
		_, _ = io.WriteString(conn, "answer "+line)
	})
	if err != nil {
		t.Fatal(err)
	}
	ask := func(q string) string {
		t.Helper()
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.WriteString(conn, q); err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(conn) // the panicking handler's connection may reset
		return string(out)
	}

	if out := ask("panic\n"); out != "" {
		t.Errorf("the panicking handler answered %q", out)
	}
	if out := ask("next\n"); out != "answer next\n" {
		t.Errorf("the connection after the panic was answered %q, want %q", out, "answer next\n")
	}
	if n := serveErrors.Value(); n != 1 {
		t.Errorf("serve errors = %d, want 1", n)
	}
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after a handler panicked")
	}
	// Close has waited for every connection, so the log is complete.
	if got := log.String(); !strings.Contains(got, "level=ERROR") || !strings.Contains(got, "handler panic on the marker line") || !strings.Contains(got, "goroutine ") {
		t.Errorf("the panic was not logged at Error with its stack:\n%s", got)
	}
}
