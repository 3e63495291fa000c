package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/binenc"
	"repro/internal/leakcheck"
)

// Raw-frame helpers: the tests below, and the fuzz targets, speak the
// wire by hand to say things no MuxClient would.

// rawFrame wraps payload in the 4-byte length envelope.
func rawFrame(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// rawRequest builds a call or stream-open frame.
func rawRequest(kind byte, id uint64, op string, flags byte, timeoutMS uint64, body []byte) []byte {
	b := binenc.AppendUvarint([]byte{kind}, id)
	b = binenc.AppendString(b, op)
	b = append(b, flags)
	b = binenc.AppendUvarint(b, timeoutMS)
	return rawFrame(append(b, body...))
}

// addBody is math.add's binary request body.
func addBody(a, b uint64) []byte {
	return binenc.AppendUvarint(binenc.AppendUvarint(nil, a), b)
}

// TestV3HugeTimeoutRuns: a frame asking for a deadline too long for a
// time.Duration is a frame asking for a very long deadline — the call
// runs; the multiplication must not wrap into an already-expired one.
func TestV3HugeTimeoutRuns(t *testing.T) {
	leakcheck.Check(t)
	_, addr := v3AddServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(conn)
	for i, timeoutMS := range []uint64{math.MaxInt64/1_000_000 + 1, math.MaxUint64} {
		msg := rawRequest(v3Call, uint64(i+1), "math.add", 0, timeoutMS, addBody(19, 23))
		if i == 0 {
			msg = append(v3Magic[:], msg...)
		}
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
		var buf []byte
		payload, err := readFrameInto(r, &buf)
		if err != nil {
			t.Fatal(err)
		}
		d := binenc.NewDec(payload)
		kind, id, flags := d.Byte(), d.Uvarint(), d.Byte()
		if kind != v3Reply || id != uint64(i+1) || flags != 0 {
			t.Fatalf("timeout_ms=%d: reply kind=%d id=%d flags=%#x body=%q, want a clean reply",
				timeoutMS, kind, id, flags, d.Rest())
		}
		if sum := d.Uvarint(); sum != 42 || d.Err() != nil {
			t.Fatalf("timeout_ms=%d: sum = %d, %v", timeoutMS, sum, d.Err())
		}
	}
}

// TestV3SlowReaderSparesOtherConns: nothing server-wide is held across a
// response write — a peer that sends a call for a large reply and never
// reads it stalls only its own connection; a call on another connection
// still completes.
func TestV3SlowReaderSparesOtherConns(t *testing.T) {
	leakcheck.Check(t)
	srv := NewServer()
	// Larger than loopback socket buffers can swallow, so the write of
	// the reply is still blocked when the second connection calls.
	big := make([]byte, MaxFrame-1024)
	handled := make(chan struct{})
	srv.HandleV3("big", func(_ context.Context, _, out []byte) ([]byte, *Error) {
		defer close(handled)
		return append(out, big...), nil
	})
	srv.HandleV3("ping", func(_ context.Context, _, out []byte) ([]byte, *Error) {
		return append(out, 'p'), nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	stalled.(*net.TCPConn).SetReadBuffer(4096)
	if _, err := stalled.Write(append(v3Magic[:], rawRequest(v3Call, 1, "big", 0, 0, nil)...)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-handled:
	case <-time.After(5 * time.Second):
		t.Fatal("the big call never ran")
	}

	m := dialV3(t, addr)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.CallV3(ctx, "ping", nil, nil); err != nil {
		t.Fatalf("call on a second connection, behind a peer that stopped reading: %v", err)
	}
}

// halfConn is one end of a duplex built from two net.Pipes, so that —
// unlike a single net.Pipe — its write side can be closed (the peer
// reads EOF) while its read side stays open for what the peer still has
// to say. The fuzz targets need exactly that to feed a finite input and
// then collect every answer.
type halfConn struct {
	net.Conn          // the read side (and deadlines, addresses)
	w        net.Conn // the write side
}

func (c halfConn) Write(p []byte) (int, error) { return c.w.Write(p) }
func (c halfConn) CloseWrite() error           { return c.w.Close() }
func (c halfConn) Close() error {
	c.w.Close()
	return c.Conn.Close()
}

func duplexPipe() (a, b halfConn) {
	ab1, ab2 := net.Pipe() // a writes, b reads
	ba1, ba2 := net.Pipe() // b writes, a reads
	return halfConn{Conn: ba2, w: ab1}, halfConn{Conn: ab2, w: ba1}
}

// pipeListener hands the accept loop connections made in process.
type pipeListener struct{ conns chan net.Conn }

func (l pipeListener) Accept() (net.Conn, error) {
	c, ok := <-l.conns
	if !ok {
		return nil, io.ErrClosedPipe
	}
	return c, nil
}
func (l pipeListener) Close() error   { close(l.conns); return nil }
func (l pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// TestFrameBounds: a forged oversized length header is rejected on read
// before anything is allocated for it, a frame that ends early is an
// error, and a request too large for one frame is refused client-side
// without costing the connection.
func TestFrameBounds(t *testing.T) {
	var buf []byte
	if _, err := readFrameInto(bufio.NewReader(strings.NewReader("\xff\xff\xff\xff")), &buf); err == nil || buf != nil {
		t.Fatalf("oversized header: err = %v, %d bytes allocated", err, cap(buf))
	}
	if _, err := readFrameInto(bufio.NewReader(strings.NewReader("\x00\x00\x00\x10abc")), &buf); err == nil {
		t.Fatal("truncated frame accepted")
	}
	_, addr := v3AddServer(t)
	m := dialV3(t, addr)
	err := m.CallV3(context.Background(), "math.add",
		func(b []byte) []byte { return append(b, make([]byte, MaxFrame)...) }, nil)
	if ErrorCode(err) != CodeBadRequest {
		t.Fatalf("oversized request err = %v, want %s", err, CodeBadRequest)
	}
	if sum, err := addV3(t, m, 19, 23); err != nil || sum != 42 {
		t.Fatalf("call after an oversized request = %d, %v", sum, err)
	}
}
