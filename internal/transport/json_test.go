package transport

import (
	"context"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// JSON-bodied calls: an op registered with Handle is reachable through
// its derived JSON form, with typed bodies, structured codes and the
// caller's deadline. The typed round trip itself is TestV3JSONBridge.

type addReq struct {
	A int `json:"a"`
	B int `json:"b"`
}

type addResp struct {
	Sum int `json:"sum"`
}

// handleAddJSON registers "math.add" with JSON bodies, derived from the
// typed function.
func handleAddJSON(srv *Server) {
	Handle(srv, "math.add", func(_ context.Context, req addReq) (addResp, error) {
		return addResp{Sum: req.A + req.B}, nil
	})
}

func TestJSONStructuredErrorCode(t *testing.T) {
	srv := NewServer()
	Handle(srv, "fail.coded", func(context.Context, struct{}) (struct{}, error) {
		return struct{}{}, Errf(CodeUnavailable, "deliberately unavailable")
	})
	Handle(srv, "fail.ctx", func(context.Context, struct{}) (struct{}, error) {
		return struct{}{}, context.Canceled // a non-*Error error
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	m := dialV3(t, addr)

	err = m.CallJSON(context.Background(), "fail.coded", nil, nil)
	if ErrorCode(err) != CodeUnavailable || !strings.Contains(err.Error(), "deliberately") {
		t.Fatalf("err = %v", err)
	}
	// A context error returned by a handler is classified, not flattened
	// to exec_error.
	err = m.CallJSON(context.Background(), "fail.ctx", nil, nil)
	if ErrorCode(err) != CodeCanceled {
		t.Fatalf("err = %v, want %s", err, CodeCanceled)
	}
}

func TestJSONBadRequestBody(t *testing.T) {
	srv := NewServer()
	handleAddJSON(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	m := dialV3(t, addr)
	// A request body of the wrong shape must fail decoding server-side.
	err = m.CallJSON(context.Background(), "math.add", map[string]string{"a": "NaN"}, nil)
	if ErrorCode(err) != CodeBadRequest {
		t.Fatalf("err = %v", err)
	}
	// The connection is unharmed.
	var resp addResp
	if err := m.CallJSON(context.Background(), "math.add", addReq{A: 1, B: 2}, &resp); err != nil || resp.Sum != 3 {
		t.Fatalf("call after a bad body = %+v, %v", resp, err)
	}
}

// TestDeadlinePropagation: the client's remaining context budget reaches
// the handler as a real context deadline.
func TestDeadlinePropagation(t *testing.T) {
	srv := NewServer()
	Handle(srv, "deadline.check", func(ctx context.Context, _ struct{}) (map[string]bool, error) {
		_, ok := ctx.Deadline()
		return map[string]bool{"hasDeadline": ok}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	m := dialV3(t, addr)

	var got map[string]bool
	if err := m.CallJSON(context.Background(), "deadline.check", nil, &got); err != nil {
		t.Fatal(err)
	}
	if got["hasDeadline"] {
		t.Fatal("deadline present without one being set")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.CallJSON(ctx, "deadline.check", nil, &got); err != nil {
		t.Fatal(err)
	}
	if !got["hasDeadline"] {
		t.Fatal("deadline not propagated to handler")
	}
}

// writeCountingConn counts the bytes written through it.
type writeCountingConn struct {
	net.Conn
	written *atomic.Int64
}

func (c writeCountingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// TestExpiredContextClientSide: a dead context fails before a frame —
// before even the buffered magic — is written.
func TestExpiredContextClientSide(t *testing.T) {
	leakcheck.Check(t)
	_, addr := v3AddServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var written atomic.Int64
	m := NewMuxClient(writeCountingConn{conn, &written}, 0)
	t.Cleanup(func() { m.Close() })
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Minute))
	defer cancel()
	if err := m.CallJSON(ctx, "ops.list", nil, nil); ErrorCode(err) != CodeDeadline {
		t.Fatalf("CallJSON err = %v", err)
	}
	if err := m.CallV3(ctx, "math.add", nil, nil); ErrorCode(err) != CodeDeadline {
		t.Fatalf("CallV3 err = %v", err)
	}
	sconn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStream(ctx, writeCountingConn{sconn, &written}, "ticks", nil); ErrorCode(err) != CodeDeadline {
		t.Fatalf("OpenStream err = %v", err)
	}
	if n := written.Load(); n != 0 {
		t.Fatalf("%d bytes reached the wire under an expired context", n)
	}
}

// TestCancellationUnblocks: cancelling a deadline-less context unblocks
// a call stuck on a slow handler, with the canceled code.
func TestCancellationUnblocks(t *testing.T) {
	leakcheck.Check(t)
	srv := NewServer()
	release := make(chan struct{})
	entered := make(chan struct{})
	Handle(srv, "slow.op", func(context.Context, struct{}) (struct{}, error) {
		close(entered)
		<-release
		return struct{}{}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { close(release); srv.Close() })
	m := dialV3(t, addr)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- m.CallJSON(ctx, "slow.op", nil, nil) }()
	<-entered
	cancel()
	select {
	case err := <-done:
		if ErrorCode(err) != CodeCanceled {
			t.Fatalf("err = %v, want canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("CallJSON did not unblock on cancellation")
	}
}
