package transport

import (
	"bufio"
	"context"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/binenc"
	"repro/internal/leakcheck"
)

// handleAdd registers "math.add" with a binary codec: two uvarints in,
// their sum out.
func handleAdd(srv *Server) {
	srv.HandleV3("math.add", func(_ context.Context, body, out []byte) ([]byte, *Error) {
		d := binenc.NewDec(body)
		a := d.Uvarint()
		b := d.Uvarint()
		if err := d.Err(); err != nil {
			return nil, AsError(err)
		}
		return binenc.AppendUvarint(out, a+b), nil
	})
}

// v3AddServer serves "math.add" on a loopback socket.
func v3AddServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := NewServer()
	handleAdd(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, addr
}

func dialV3(t *testing.T, addr string) *MuxClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMuxClient(conn, 0)
	t.Cleanup(func() { m.Close() })
	return m
}

// openV3Stream opens op as a stream on a connection of its own to addr.
func openV3Stream(t *testing.T, addr, op string, enc func(b []byte) []byte) (*StreamConn, error) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenStream(context.Background(), conn, op, enc)
	if err == nil {
		t.Cleanup(func() { s.Close() })
	}
	return s, err
}

// ticksBody is the "ticks" stream's request body.
func ticksBody(n uint64) func(b []byte) []byte {
	return func(b []byte) []byte { return binenc.AppendUvarint(b, n) }
}

func addV3(t *testing.T, m *MuxClient, a, b uint64) (uint64, error) {
	t.Helper()
	var sum uint64
	err := m.CallV3(context.Background(), "math.add",
		func(buf []byte) []byte {
			buf = binenc.AppendUvarint(buf, a)
			return binenc.AppendUvarint(buf, b)
		},
		func(body []byte) error {
			d := binenc.NewDec(body)
			sum = d.Uvarint()
			return d.Err()
		})
	return sum, err
}

// TestV3BinaryRoundTrip: a binary-bodied call reaches the binary
// handler and the answer decodes from the response frame.
func TestV3BinaryRoundTrip(t *testing.T) {
	_, addr := v3AddServer(t)
	m := dialV3(t, addr)
	sum, err := addV3(t, m, 19, 23)
	if err != nil {
		t.Fatal(err)
	}
	if sum != 42 {
		t.Fatalf("sum = %d", sum)
	}
	// A body that runs off its frame (binenc.ErrMalformed in the codec)
	// reaches the caller as a typed bad_request, not an exec failure.
	err = m.CallV3(context.Background(), "math.add",
		func(b []byte) []byte { return binenc.AppendUvarint(b, 19) }, nil)
	if ErrorCode(err) != CodeBadRequest {
		t.Fatalf("truncated body err = %v, want %s", err, CodeBadRequest)
	}
}

// TestV3PipelinedOutOfOrder: with a slow call in flight, a fast call on
// the same connection completes first — responses are written in
// completion order, not arrival order.
func TestV3PipelinedOutOfOrder(t *testing.T) {
	leakcheck.Check(t)
	srv := NewServer()
	release := make(chan struct{})
	srv.HandleV3("slow", func(_ context.Context, _, out []byte) ([]byte, *Error) {
		<-release
		return append(out, 1), nil
	})
	srv.HandleV3("fast", func(_ context.Context, _, out []byte) ([]byte, *Error) {
		return append(out, 2), nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	m := dialV3(t, addr)

	slowDone := make(chan error, 1)
	go func() {
		slowDone <- m.CallV3(context.Background(), "slow", nil, nil)
	}()
	// The fast call must answer while the slow one is still blocked on
	// the server. A generous deadline distinguishes pipelining from a
	// head-of-line stall without being timing-sensitive.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.CallV3(ctx, "fast", nil, nil); err != nil {
		t.Fatalf("fast call stalled behind the slow one: %v", err)
	}
	select {
	case err := <-slowDone:
		t.Fatalf("slow call finished early: %v", err)
	default:
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
}

// TestV3ConcurrentCalls: many goroutines share one mux connection, each
// getting its own answer back — no cross-call corruption under load.
func TestV3ConcurrentCalls(t *testing.T) {
	leakcheck.Check(t)
	_, addr := v3AddServer(t)
	m := dialV3(t, addr)
	var wg sync.WaitGroup
	errs := make(chan error, 100)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i uint64) {
			defer wg.Done()
			sum, err := addV3(t, m, i, 1000)
			if err != nil {
				errs <- err
				return
			}
			if sum != i+1000 {
				errs <- Errf(CodeInternal, "call %d answered %d", i, sum)
			}
		}(uint64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestV3JSONBridge: an op registered with Handle is callable — and
// pipelined — over a v3 connection via CallJSON.
func TestV3JSONBridge(t *testing.T) {
	srv := NewServer()
	handleAddJSON(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	m := dialV3(t, addr)
	var resp addResp
	if err := m.CallJSON(context.Background(), "math.add", addReq{A: 19, B: 23}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Sum != 42 {
		t.Fatalf("sum = %d", resp.Sum)
	}
	// Unknown ops keep their structured code through the bridge.
	if err := m.CallJSON(context.Background(), "no.such.op", nil, nil); ErrorCode(err) != CodeUnknownOp {
		t.Fatalf("unknown op err = %v", err)
	}
}

// TestV3BinaryBodyToJSONOnlyOp: a binary-bodied call against an op
// registered without a binary codec never reaches the JSON handler (it
// would see garbage); it fails as a plain typed bad_request, distinct
// from an unknown op, and the connection stays usable.
func TestV3BinaryBodyToJSONOnlyOp(t *testing.T) {
	srv := NewServer()
	var ran atomic.Bool
	Handle(srv, "math.add", func(_ context.Context, req addReq) (addResp, error) {
		ran.Store(true)
		return addResp{Sum: req.A + req.B}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	m := dialV3(t, addr)
	_, cerr := addV3(t, m, 1, 2)
	if ErrorCode(cerr) != CodeBadRequest {
		t.Fatalf("code = %s, want %s (%v)", ErrorCode(cerr), CodeBadRequest, cerr)
	}
	if ran.Load() {
		t.Fatal("the JSON handler ran on a binary body")
	}
	err = m.CallV3(context.Background(), "no.such.op", nil, nil)
	if ErrorCode(err) != CodeUnknownOp {
		t.Fatalf("unknown op err = %v", err)
	}
	var resp addResp
	if err := m.CallJSON(context.Background(), "math.add", addReq{A: 1, B: 2}, &resp); err != nil || resp.Sum != 3 {
		t.Fatalf("JSON-bodied call on the same connection = %+v, %v", resp, err)
	}
}

// TestV3JSONBodyToBinaryOnlyOp: a JSON-bodied call against an op
// registered with only a binary codec never reaches the codec (it would
// decode JSON text as binary); it fails as a typed bad_request naming
// the op, and the connection stays usable for binary calls.
func TestV3JSONBodyToBinaryOnlyOp(t *testing.T) {
	srv := NewServer()
	var ran atomic.Bool
	srv.HandleV3("math.add", func(_ context.Context, body, out []byte) ([]byte, *Error) {
		ran.Store(true)
		d := binenc.NewDec(body)
		return binenc.AppendUvarint(out, d.Uvarint()+d.Uvarint()), nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	m := dialV3(t, addr)
	var resp addResp
	err = m.CallJSON(context.Background(), "math.add", addReq{A: 1, B: 2}, &resp)
	if ErrorCode(err) != CodeBadRequest || !strings.Contains(err.Error(), `"math.add"`) {
		t.Fatalf("JSON body to a binary-only op: err = %v, want %s naming the op", err, CodeBadRequest)
	}
	if ran.Load() {
		t.Fatal("the binary handler ran on a JSON body")
	}
	if err := m.CallJSON(context.Background(), "no.such.op", nil, nil); ErrorCode(err) != CodeUnknownOp {
		t.Fatalf("unknown op err = %v", err)
	}
	if sum, err := addV3(t, m, 1, 2); err != nil || sum != 3 {
		t.Fatalf("binary call on the same connection = %d, %v", sum, err)
	}
}

// TestV3ErrorCodePropagation: a binary handler's structured error
// arrives with its code intact.
func TestV3ErrorCodePropagation(t *testing.T) {
	srv := NewServer()
	srv.HandleV3("fail", func(context.Context, []byte, []byte) ([]byte, *Error) {
		return nil, Errf(CodeUnavailable, "deliberately unavailable")
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	m := dialV3(t, addr)
	err = m.CallV3(context.Background(), "fail", nil, nil)
	if ErrorCode(err) != CodeUnavailable {
		t.Fatalf("err = %v", err)
	}
}

// TestV3AbandonedCallSparesSiblings: a call whose context expires is
// abandoned without tearing the connection — a sibling call in flight
// and the next call both succeed on the same mux.
func TestV3AbandonedCallSparesSiblings(t *testing.T) {
	leakcheck.Check(t)
	srv := NewServer()
	release := make(chan struct{})
	// The handler ignores its context so the client's deadline always
	// fires first: the call is abandoned client-side and the late reply
	// must be dropped without disturbing the connection.
	srv.HandleV3("stall", func(_ context.Context, _, out []byte) ([]byte, *Error) {
		<-release
		return out, nil
	})
	srv.HandleV3("quick", func(_ context.Context, _, out []byte) ([]byte, *Error) {
		return out, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	m := dialV3(t, addr)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err = m.CallV3(ctx, "stall", nil, nil)
	if ErrorCode(err) != CodeDeadline {
		t.Fatalf("stalled call err = %v, want %s", err, CodeDeadline)
	}
	close(release)
	// The connection survived the abandonment.
	if err := m.CallV3(context.Background(), "quick", nil, nil); err != nil {
		t.Fatalf("call after abandoned sibling: %v", err)
	}
}

// TestV3MalformedFrameClosesConn: a frame the server cannot parse means
// the two sides disagree about framing; the server hangs up rather than
// guessing at a resync.
func TestV3MalformedFrameClosesConn(t *testing.T) {
	leakcheck.Check(t)
	_, addr := v3AddServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(v3Magic[:]); err != nil {
		t.Fatal(err)
	}
	// A one-byte frame: kind only, no id — malformed.
	if _, err := conn.Write([]byte{0, 0, 0, 1, v3Call}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after malformed frame = %v, want EOF", err)
	}
}

// v3TickServer serves a binary "ticks" stream: req is a uvarint count
// (0 = run until cancelled), each event frame carries the tick number.
func v3TickServer(t *testing.T) string {
	t.Helper()
	srv := NewServer()
	srv.HandleStreamV3("ticks", func(ctx context.Context, body []byte) (V3StreamFunc, *Error) {
		d := binenc.NewDec(body)
		n := d.Uvarint()
		if err := d.Err(); err != nil {
			return nil, AsError(err)
		}
		if n == 99 {
			return nil, Errf(CodeUnavailable, "ticks are off today")
		}
		run := func(send V3Send) error {
			for i := uint64(0); n == 0 || i < n; i++ {
				select {
				case <-ctx.Done():
					return ctx.Err()
				default:
				}
				i := i
				if err := send(func(b []byte) []byte { return binenc.AppendUvarint(b, i) }); err != nil {
					return err
				}
				if n == 0 {
					time.Sleep(time.Millisecond)
				}
			}
			return nil
		}
		return run, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return addr
}

// TestV3StreamDelivery: a finite binary stream delivers every event in
// order and ends with io.EOF.
func TestV3StreamDelivery(t *testing.T) {
	leakcheck.Check(t)
	s, err := openV3Stream(t, v3TickServer(t), "ticks", ticksBody(3))
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for {
		err := s.Recv(func(_ byte, body []byte) error {
			d := binenc.NewDec(body)
			got = append(got, d.Uvarint())
			return d.Err()
		})
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("ticks = %v", got)
	}
}

// TestV3StreamSetupError: a failing open returns the structured error
// from OpenStream itself and closes the connection it was handed; the
// next stream, on a connection of its own, opens fine.
func TestV3StreamSetupError(t *testing.T) {
	leakcheck.Check(t)
	addr := v3TickServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStream(context.Background(), conn, "ticks", ticksBody(99)); ErrorCode(err) != CodeUnavailable {
		t.Fatalf("setup err = %v", err)
	}
	if _, err := conn.Write([]byte{0}); err == nil {
		t.Fatal("the connection of a failed open is still open")
	}
	s, err := openV3Stream(t, addr, "ticks", ticksBody(1))
	if err != nil {
		t.Fatal(err)
	}
	s.Cancel()
}

// TestV3StreamCancel: cancelling an endless stream ends it cleanly —
// Recv observes the end frame, never a hang.
func TestV3StreamCancel(t *testing.T) {
	leakcheck.Check(t)
	s, err := openV3Stream(t, v3TickServer(t), "ticks", ticksBody(0))
	if err != nil {
		t.Fatal(err)
	}
	// Take a couple of events, then hang up.
	for i := 0; i < 2; i++ {
		if err := s.Recv(func(byte, []byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Cancel(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for {
			if err := s.Recv(func(byte, []byte) error { return nil }); err != nil {
				done <- err
				return
			}
		}
	}()
	select {
	case err := <-done:
		if err != io.EOF {
			t.Fatalf("after cancel, Recv = %v, want EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end after cancel")
	}
}

// TestV3StreamOpMisuse: stream ops demand stream opens and call ops
// demand calls, with structured codes either way — and a misused call
// does not cost its connection.
func TestV3StreamOpMisuse(t *testing.T) {
	leakcheck.Check(t)
	addr := v3TickServer(t)
	m := dialV3(t, addr)
	err := m.CallV3(context.Background(), "ticks", ticksBody(1), nil)
	if ErrorCode(err) != CodeBadRequest {
		t.Fatalf("plain call on stream op = %v, want %s", err, CodeBadRequest)
	}
	if err := m.CallJSON(context.Background(), "ticks", nil, nil); ErrorCode(err) != CodeBadRequest {
		t.Fatalf("JSON call on stream op = %v, want %s", err, CodeBadRequest)
	}
	if _, err := openV3Stream(t, addr, "ops.list", nil); ErrorCode(err) != CodeUnknownOp {
		t.Fatalf("stream open on call op = %v, want %s", err, CodeUnknownOp)
	}
	if _, err := openV3Stream(t, addr, "no.such.stream", nil); ErrorCode(err) != CodeUnknownOp {
		t.Fatalf("unknown stream err = %v", err)
	}
	if err := m.CallJSON(context.Background(), "ops.list", nil, nil); err != nil {
		t.Fatalf("call after the misuses: %v", err)
	}
}

// TestV3CallsInterleaveWithStream: the server does not dedicate a
// connection to a stream. A peer that writes calls on the connection it
// opened a stream on gets each reply while the events keep coming, and
// the stream still ends with its end frame when cancelled.
func TestV3CallsInterleaveWithStream(t *testing.T) {
	leakcheck.Check(t)
	srv := NewServer()
	srv.HandleV3("ping", func(_ context.Context, _, out []byte) ([]byte, *Error) {
		return append(out, 'p'), nil
	})
	srv.HandleStreamV3("ticks", func(ctx context.Context, _ []byte) (V3StreamFunc, *Error) {
		return func(send V3Send) error {
			for i := uint64(0); ; i++ {
				select {
				case <-ctx.Done():
					return ctx.Err()
				default:
				}
				i := i
				if err := send(func(b []byte) []byte { return binenc.AppendUvarint(b, i) }); err != nil {
					return err
				}
				time.Sleep(time.Millisecond)
			}
		}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	write := func(frame []byte) {
		t.Helper()
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(conn)
	var buf []byte
	read := func() v3Response {
		t.Helper()
		payload, err := readFrameInto(r, &buf)
		if err != nil {
			t.Fatal(err)
		}
		resp, ok := parseV3Response(payload)
		if !ok {
			t.Fatalf("malformed response frame % x", payload)
		}
		return resp
	}
	const stream = 7
	write(append(v3Magic[:], rawRequest(v3Open, stream, "ticks", 0, 0, nil)...))
	if resp := read(); resp.kind != v3Ack || resp.id != stream {
		t.Fatalf("first frame: kind %d id %d, want the stream's ack", resp.kind, resp.id)
	}
	// Each round's call is answered, and an event arrives in the round.
	for call := uint64(stream + 1); call <= stream+5; call++ {
		write(rawRequest(v3Call, call, "ping", 0, 0, nil))
		replied, events := false, 0
		for !replied || events == 0 {
			switch resp := read(); {
			case resp.kind == v3Event && resp.id == stream:
				events++
			case resp.kind == v3Reply && resp.id == call && string(resp.body) == "p":
				replied = true
			default:
				t.Fatalf("call %d: unexpected frame kind %d id %d", call, resp.kind, resp.id)
			}
		}
	}
	write(rawFrame(binenc.AppendUvarint([]byte{v3Cancel}, stream)))
	for resp := read(); resp.kind != v3End; resp = read() {
		if resp.kind != v3Event || resp.id != stream {
			t.Fatalf("after cancel: unexpected frame kind %d id %d", resp.kind, resp.id)
		}
	}
}

// TestV3ServerCloseFailsInFlight: closing the server fails a pending
// call with a connection error instead of hanging the caller, while
// Close itself waits out the running handler.
func TestV3ServerCloseFailsInFlight(t *testing.T) {
	leakcheck.Check(t)
	srv := NewServer()
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.HandleV3("stall", func(_ context.Context, _, out []byte) ([]byte, *Error) {
		close(entered)
		<-release
		return out, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := dialV3(t, addr)
	done := make(chan error, 1)
	go func() {
		done <- m.CallV3(context.Background(), "stall", nil, nil)
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never entered")
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	// The connection dies with Close, so the pending call fails promptly
	// even though the handler is still running.
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call against a closed server succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call hung through server close")
	}
	// But Close itself waits for the in-flight handler.
	select {
	case <-closed:
		t.Fatal("Server.Close returned while a handler was still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close did not return after the handler finished")
	}
}
