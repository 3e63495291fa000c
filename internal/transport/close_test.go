package transport

import (
	"context"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/binenc"
	"repro/internal/leakcheck"
)

// The Server.Close contract under load: a client blocked on an in-flight
// call unblocks with an error the moment Close cuts the connection while
// Close itself waits for the in-flight handler to finish (graceful to
// server-side work, abrupt to the wire — TestV3ServerCloseFailsInFlight);
// a live stream's client terminates instead of hanging; and the listener
// is down afterwards.

// TestServerCloseUnblocksStreamClient: a client blocked in Recv on a
// live stream gets the connection's error when the server closes — never
// a hang, and never the clean end a cancelled stream gets — and the
// server's stream handler is unwound too.
func TestServerCloseUnblocksStreamClient(t *testing.T) {
	leakcheck.Check(t)
	srv := NewServer()
	handlerDone := make(chan error, 1)
	srv.HandleStreamV3("forever", func(ctx context.Context, _ []byte) (V3StreamFunc, *Error) {
		return func(send V3Send) error {
			if err := send(func(b []byte) []byte { return binenc.AppendUvarint(b, 0) }); err != nil {
				return err
			}
			<-ctx.Done()
			handlerDone <- ctx.Err()
			return ctx.Err()
		}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, err := openV3Stream(t, addr, "forever", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Recv(func(byte, []byte) error { return nil }); err != nil {
		t.Fatalf("first event: %v", err)
	}

	recvErr := make(chan error, 1)
	go func() {
		recvErr <- s.Recv(func(byte, []byte) error { return nil })
	}()
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case err := <-recvErr:
		if _, typed := err.(*Error); err == nil || err == io.EOF || typed {
			t.Fatalf("Recv across Server.Close = %v, want the connection's error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv hung across Server.Close")
	}
	select {
	case <-handlerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("stream handler was not unwound by Server.Close")
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close hung on an open stream")
	}
}

// TestServerCloseRefusesNewConns: after Close the listener is down —
// new dials fail instead of connecting to a half-dead server.
func TestServerCloseRefusesNewConns(t *testing.T) {
	leakcheck.Check(t)
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Fatal("dial succeeded after Server.Close")
	}
}
