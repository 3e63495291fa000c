package federation_test

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	gridmon "repro"
	"repro/internal/faultconn"
	"repro/internal/federation"
	"repro/internal/leakcheck"
	"repro/internal/transport"
)

// gatedConn holds every write until the connection is closed, so a test
// can act while a call is in flight on it.
type gatedConn struct {
	net.Conn
	writing   chan struct{} // closed by the first Write
	closed    chan struct{} // closed by Close
	writeOnce sync.Once
	closeOnce sync.Once
}

func (c *gatedConn) Write(p []byte) (int, error) {
	c.writeOnce.Do(func() { close(c.writing) })
	<-c.closed
	return 0, net.ErrClosed
}

func (c *gatedConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestFedSetMapRetiresClientsForGood: a query that took a backend's
// client before SetMap retired it fails that branch, typed, instead of
// re-dialing a connection nothing would ever close. The leaf outlives
// the leak check, so such a connection would still be open when it runs.
func TestFedSetMapRetiresClientsForGood(t *testing.T) {
	addr, _, _ := serveLeaf(t, buildGrid(t, fedHosts), faultconn.Plan{}, "127.0.0.1:0")
	t.Run("query across the swap", func(t *testing.T) {
		leakcheck.Check(t)
		gate := &gatedConn{writing: make(chan struct{}), closed: make(chan struct{})}
		var dials atomic.Int32
		r, err := federation.New(federation.Config{
			Map: federation.NewShardMap(addr),
			Dial: gridmon.DialOptions{
				MaxRetries: 1,
				Backoff:    gridmon.Backoff{Base: time.Millisecond},
				WrapConn: func(c net.Conn) net.Conn {
					if dials.Add(1) > 1 {
						return c
					}
					gate.Conn = c
					return gate
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		ctx := testCtx(t)
		done := make(chan error, 1)
		go func() {
			_, err := r.Query(ctx, gridmon.Query{System: gridmon.MDS, Host: fedHosts[0], Expr: "(objectclass=MdsCpu)"})
			done <- err
		}()
		<-gate.writing
		next := federation.NewShardMap("127.0.0.1:1") // never dialed: nothing queries epoch 2
		next.Epoch = 2
		if err := r.SetMap(next); err != nil {
			t.Fatal(err)
		}
		err = <-done
		if transport.ErrorCode(err) != transport.CodeUnavailable || !strings.Contains(err.Error(), "client closed") {
			t.Errorf("query across the swap: %v, want unavailable \"client closed\"", err)
		}
		if n := dials.Load(); n != 1 {
			t.Errorf("the retired client dialed %d connections, want 1", n)
		}
	})
}
