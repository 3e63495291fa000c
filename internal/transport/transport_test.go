package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

type echoMsg struct {
	Msg string `json:"msg"`
}

// newEchoServer serves two JSON-bodied ops: "echo" answers its request,
// "fail" returns a plain (uncoded) error.
func newEchoServer(t *testing.T) (string, *Server) {
	t.Helper()
	srv := NewServer()
	Handle(srv, "echo", func(_ context.Context, req echoMsg) (echoMsg, error) {
		return req, nil
	})
	Handle(srv, "fail", func(context.Context, struct{}) (struct{}, error) {
		return struct{}{}, errors.New("deliberate failure")
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return addr, srv
}

func echo(m *MuxClient, msg string) (string, error) {
	var resp echoMsg
	err := m.CallJSON(context.Background(), "echo", echoMsg{Msg: msg}, &resp)
	return resp.Msg, err
}

func TestClientServerRoundTrip(t *testing.T) {
	leakcheck.Check(t)
	addr, _ := newEchoServer(t)
	m := dialV3(t, addr)
	got, err := echo(m, "hello grid")
	if err != nil {
		t.Fatal(err)
	}
	if got != "hello grid" {
		t.Fatalf("payload = %q", got)
	}
}

// TestServerErrorPropagates: a handler's plain error reaches the client
// with its message, classified as an exec failure.
func TestServerErrorPropagates(t *testing.T) {
	addr, _ := newEchoServer(t)
	m := dialV3(t, addr)
	err := m.CallJSON(context.Background(), "fail", nil, nil)
	if ErrorCode(err) != CodeExec || !strings.Contains(err.Error(), "deliberate") {
		t.Fatalf("error = %v", err)
	}
}

// TestUnknownOp: an unregistered op fails with its own code, and the
// message points at the introspection op.
func TestUnknownOp(t *testing.T) {
	addr, _ := newEchoServer(t)
	m := dialV3(t, addr)
	err := m.CallJSON(context.Background(), "nosuch.op", nil, nil)
	if ErrorCode(err) != CodeUnknownOp || !strings.Contains(err.Error(), "ops.list") {
		t.Fatalf("unknown op err = %v", err)
	}
}

func TestMultipleRequestsPerConnection(t *testing.T) {
	addr, _ := newEchoServer(t)
	m := dialV3(t, addr)
	for i := 0; i < 20; i++ {
		msg := fmt.Sprintf("m%d", i)
		got, err := echo(m, msg)
		if err != nil {
			t.Fatal(err)
		}
		if got != msg {
			t.Fatalf("call %d = %q", i, got)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	leakcheck.Check(t)
	addr, _ := newEchoServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			m := NewMuxClient(conn, 0)
			defer m.Close()
			for k := 0; k < 10; k++ {
				want := fmt.Sprintf("c%d-%d", i, k)
				got, err := echo(m, want)
				if err != nil {
					errs <- err
					return
				}
				if got != want {
					errs <- fmt.Errorf("got %q want %q", got, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	leakcheck.Check(t)
	srv := NewServer()
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close() // must not panic or deadlock
}

// TestOpsListing: JSON-bodied ops, binary ops and stream ops share one
// table, so one sorted listing — in process and over the
// built-in ops.list op — names them all.
func TestOpsListing(t *testing.T) {
	srv := NewServer()
	Handle(srv, "b.json", func(context.Context, struct{}) (struct{}, error) { return struct{}{}, nil })
	srv.HandleV3("a.binary", func(_ context.Context, _, out []byte) ([]byte, *Error) { return out, nil })
	srv.HandleStreamV3("c.stream", func(context.Context, []byte) (V3StreamFunc, *Error) {
		return func(V3Send) error { return nil }, nil
	})
	want := []string{"a.binary", "b.json", "c.stream", "ops.list"}
	if got := srv.Ops(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ops = %v, want %v", got, want)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	var ol OpsList
	if err := dialV3(t, addr).CallJSON(context.Background(), "ops.list", nil, &ol); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ol.Ops) != fmt.Sprint(want) {
		t.Fatalf("ops.list = %v, want %v", ol.Ops, want)
	}
}

// TestNonV3PeerIsDisconnected: a connection that does not open with the
// magic — here a length-prefixed JSON frame in the shape the removed v1
// protocol used — gets no answer in any dialect: the server closes it,
// and keeps serving clients that do speak the protocol.
func TestNonV3PeerIsDisconnected(t *testing.T) {
	leakcheck.Check(t)
	addr, _ := newEchoServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := []byte(`{"op":"echo","params":{"msg":"old"}}`)
	frame := append([]byte{0, 0, 0, byte(len(body))}, body...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var got bytes.Buffer
	if _, err := got.ReadFrom(conn); err != nil {
		t.Fatalf("read after a non-v3 opening = %v, want a clean close", err)
	}
	if got.Len() != 0 {
		t.Fatalf("server answered a non-v3 peer with %d bytes: %q", got.Len(), got.Bytes())
	}
	if msg, err := echo(dialV3(t, addr), "still here"); err != nil || msg != "still here" {
		t.Fatalf("v3 call after a rejected peer = %q, %v", msg, err)
	}
}
