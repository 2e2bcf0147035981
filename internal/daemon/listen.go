package daemon

import (
	"log/slog"
	"net"
	"runtime/debug"
	"sync"
	"time"

	"github.com/prefix2org/prefix2org/internal/obs"
	"github.com/prefix2org/prefix2org/internal/retry"
)

// Listener is the TCP half the connection-oriented front ends (whoisd,
// rtr) share: one accept loop, one goroutine per connection, and a
// Close that drains them. The zero value is a listener not yet bound.
type Listener struct {
	lis  net.Listener
	done chan struct{}
	wg   sync.WaitGroup
}

// Listen binds addr ("127.0.0.1:0" for an ephemeral port), returns the
// bound address, and serves every accepted connection on its own
// goroutine: handle runs the protocol, and the connection is closed
// when it returns. Failed accepts count in acceptErrors and are logged
// on logger. A handler that panics ends only its own connection: the
// panic is recovered, counted in serveErrors and logged with its stack.
func (l *Listener) Listen(addr string, acceptErrors, serveErrors *obs.Counter, logger *slog.Logger, handle func(net.Conn)) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	l.lis, l.done = lis, make(chan struct{})
	l.wg.Add(1)
	go l.acceptLoop(acceptErrors, serveErrors, logger, handle)
	return lis.Addr().String(), nil
}

// Close stops accepting and waits for in-flight connections to finish;
// on a listener never bound it does nothing.
func (l *Listener) Close() error {
	if l.lis == nil {
		return nil
	}
	close(l.done)
	err := l.lis.Close()
	l.wg.Wait()
	return err
}

func (l *Listener) acceptLoop(acceptErrors, serveErrors *obs.Counter, logger *slog.Logger, handle func(net.Conn)) {
	defer l.wg.Done()
	// Persistent Accept failures (fd exhaustion, a dying interface)
	// would otherwise spin this loop hot; back off exponentially and
	// recover as soon as one accept succeeds.
	bo := retry.Backoff{Min: 5 * time.Millisecond, Max: time.Second}
	for {
		conn, err := l.lis.Accept()
		if err != nil {
			select {
			case <-l.done:
				return
			default:
			}
			acceptErrors.Inc()
			logger.Warn("accept failed", "err", err)
			select {
			case <-l.done:
				return
			case <-time.After(bo.Next()):
			}
			continue
		}
		bo.Reset()
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			defer conn.Close()
			defer func() {
				if v := recover(); v != nil {
					serveErrors.Inc()
					logger.Error("query handler panicked", "remote", conn.RemoteAddr().String(),
						"panic", v, "stack", string(debug.Stack()))
				}
			}()
			handle(conn)
		}()
	}
}
