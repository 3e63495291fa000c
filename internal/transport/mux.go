package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/binenc"
)

// This file is the client half of the wire format for calls: a
// pipelined connection. A MuxClient assigns each call a request id,
// writes frames back-to-back, and a demux goroutine routes responses to
// per-call completion channels — so K callers share one connection with
// their calls in flight simultaneously, bounded by maxInFlight. A
// stream takes a connection of its own (see stream.go).

// DefaultMaxInFlight bounds a MuxClient's concurrently in-flight calls
// when the dialer does not choose a bound.
const DefaultMaxInFlight = 32

// muxReply is one demultiplexed reply, handed from the demux goroutine
// to the waiting call. body is pooled; the receiver releases it.
type muxReply struct {
	flags byte
	err   *Error // set when the reply carries an error
	body  *wireBuf
}

// release returns the reply's body to the pool.
func (r *muxReply) release() {
	if r.body != nil {
		putBuf(r.body)
		r.body = nil
	}
}

// MuxClient is a pipelined connection to a transport server. It is
// safe for concurrent use: up to maxInFlight calls proceed at once, each
// matched to its response by request id rather than by position. A
// connection-level failure fails every in-flight call with the same
// error; the client is then dead and must be re-dialed (the resilient
// RemoteGrid layers retry/reconnect on top).
type MuxClient struct {
	conn   net.Conn
	wmu    sync.Mutex // serializes frame writes + flush
	w      *bufio.Writer
	length [4]byte // guarded by wmu: the frame length being written

	mu     sync.Mutex
	nextID uint64
	calls  map[uint64]chan muxReply
	free   []chan muxReply // guarded by mu: reply channels for register to reuse
	err    error           // terminal connection error, set once

	sem chan struct{} // in-flight call slots
}

// NewMuxClient wraps an established connection as a client — the
// client-side half of the fault-injection seam: callers that need to
// interpose on the wire (see internal/faultconn) dial themselves, wrap
// the conn, and hand it here. The magic preamble is buffered now and
// flushed with the first frame.
func NewMuxClient(conn net.Conn, maxInFlight int) *MuxClient {
	if maxInFlight <= 0 {
		maxInFlight = DefaultMaxInFlight
	}
	m := &MuxClient{
		conn:  conn,
		w:     bufio.NewWriter(conn),
		calls: make(map[uint64]chan muxReply),
		sem:   make(chan struct{}, maxInFlight),
	}
	m.w.Write(v3Magic[:])
	go m.readLoop()
	return m
}

// readLoop is the demux goroutine: it reads reply frames for the
// connection's lifetime and routes each to its call by id. Any other
// kind of frame fails the connection.
func (m *MuxClient) readLoop() {
	r := bufio.NewReader(m.conn)
	var buf []byte
	for {
		payload, err := readFrameInto(r, &buf)
		if err != nil {
			m.fail(err)
			return
		}
		resp, ok := parseV3Response(payload)
		if !ok {
			m.fail(Errf(CodeProtocol, "transport: malformed v3 response frame"))
			return
		}
		if resp.kind != v3Reply {
			m.fail(Errf(CodeProtocol, "transport: unexpected v3 response kind %d on a call connection", resp.kind))
			return
		}
		m.mu.Lock()
		ch := m.calls[resp.id]
		delete(m.calls, resp.id)
		m.mu.Unlock()
		if ch == nil {
			// The caller gave up (context done) before the server
			// answered; drop the late response.
			continue
		}
		reply := muxReply{flags: resp.flags, err: resp.err}
		if len(resp.body) > 0 {
			reply.body = getBuf()
			reply.body.b = append(reply.body.b, resp.body...)
		}
		ch <- reply // buffered: never blocks
	}
}

// fail terminates the connection: every pending call's channel closes
// and its caller returns the connection error.
func (m *MuxClient) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	calls := m.calls
	m.calls = make(map[uint64]chan muxReply)
	m.mu.Unlock()
	for _, ch := range calls {
		close(ch)
	}
	// The connection is unusable either way; closing it makes sure the
	// demux goroutine's blocking read returns too.
	m.conn.Close()
}

// connErr is what a call returns when the connection died under it.
func (m *MuxClient) connErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	return io.ErrUnexpectedEOF
}

// writeFrame writes one request frame under the write lock. A write
// failure is connection-fatal: the peer's framing state is unknown, so
// everything in flight is failed.
func (m *MuxClient) writeFrame(payload []byte) error {
	if len(payload) > MaxFrame {
		return Errf(CodeBadRequest, "transport: v3 frame of %d bytes exceeds limit", len(payload))
	}
	m.wmu.Lock()
	err := func() error {
		binary.BigEndian.PutUint32(m.length[:], uint32(len(payload)))
		if _, err := m.w.Write(m.length[:]); err != nil {
			return err
		}
		if _, err := m.w.Write(payload); err != nil {
			return err
		}
		return m.w.Flush()
	}()
	m.wmu.Unlock()
	if err != nil {
		m.fail(err)
	}
	return err
}

// register allocates a request id and completion channel, reusing one
// that recycle handed back when there is one.
func (m *MuxClient) register() (uint64, chan muxReply, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return 0, nil, m.err
	}
	m.nextID++
	var ch chan muxReply
	if n := len(m.free); n > 0 {
		ch = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		ch = make(chan muxReply, 1)
	}
	m.calls[m.nextID] = ch
	return m.nextID, ch, nil
}

// recycle hands back the channel of a call that received its reply: the
// demux loop removed the call's entry before it sent, so nothing sends
// on the channel again. A channel unregister abandoned may still get the
// late reply the demux loop was about to send, and one fail closed is
// dead, so neither ever comes back. At most maxInFlight calls hold a
// channel at once, so no more are ever kept.
func (m *MuxClient) recycle(ch chan muxReply) {
	m.mu.Lock()
	if len(m.free) < cap(m.sem) {
		m.free = append(m.free, ch)
	}
	m.mu.Unlock()
}

// unregister abandons a pending call (context expiry); a late response
// is then dropped by the demux loop. The channel is not recycled.
func (m *MuxClient) unregister(id uint64, ch chan muxReply) {
	m.mu.Lock()
	delete(m.calls, id)
	m.mu.Unlock()
	select {
	case reply, ok := <-ch:
		if ok {
			reply.release()
		}
	default:
	}
}

// appendCallHeader appends a request frame header: kind, id, op, flags,
// and ctx's remaining budget as timeout_ms (rounded up to 1 when less
// than a millisecond is left, since 0 means "no deadline").
func appendCallHeader(b []byte, kind byte, id uint64, op string, flags byte, ctx context.Context) ([]byte, error) {
	b = append(b, kind)
	b = binenc.AppendUvarint(b, id)
	b = binenc.AppendString(b, op)
	b = append(b, flags)
	var timeoutMS uint64
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl)
		if remaining <= 0 {
			return nil, Errf(CodeDeadline, "op %q: %v", op, context.DeadlineExceeded)
		}
		timeoutMS = uint64(remaining / time.Millisecond)
		if timeoutMS == 0 {
			timeoutMS = 1
		}
	}
	return binenc.AppendUvarint(b, timeoutMS), nil
}

// call runs one pipelined exchange: acquire an in-flight slot, register,
// write the request frame, wait for the response or the context. enc
// appends the request body; handle consumes the response body (a pooled
// view valid only during the callback).
func (m *MuxClient) call(ctx context.Context, op string, flags byte, enc func(b []byte) []byte, handle func(flags byte, body []byte) error) error {
	if err := ctx.Err(); err != nil {
		return AsError(err)
	}
	select {
	case m.sem <- struct{}{}:
	case <-ctx.Done():
		return Errf(AsError(ctx.Err()).Code, "op %q: %v", op, ctx.Err())
	}
	defer func() { <-m.sem }()
	id, ch, err := m.register()
	if err != nil {
		return err
	}
	pb := getBuf()
	b, err := appendCallHeader(pb.b, v3Call, id, op, flags, ctx)
	if err != nil {
		putBuf(pb)
		m.unregister(id, ch)
		return err
	}
	if enc != nil {
		b = enc(b)
	}
	pb.b = b[:0]
	err = m.writeFrame(b)
	putBuf(pb)
	if err != nil {
		m.unregister(id, ch)
		return err
	}
	select {
	case reply, ok := <-ch:
		if !ok {
			return m.connErr()
		}
		m.recycle(ch)
		defer reply.release()
		if reply.err != nil {
			return reply.err
		}
		if handle != nil {
			var body []byte
			if reply.body != nil {
				body = reply.body.b
			}
			return handle(reply.flags, body)
		}
		return nil
	case <-ctx.Done():
		// Abandon the call without poisoning the connection: the pending
		// entry is dropped, the demux loop discards the late response,
		// and sibling in-flight calls proceed undisturbed.
		m.unregister(id, ch)
		return Errf(AsError(ctx.Err()).Code, "op %q: %v", op, ctx.Err())
	}
}

// CallV3 performs one binary-bodied exchange: enc appends the request
// body to the frame, dec decodes the response body (a view valid only
// during the callback). Server failures return as *Error with their
// structured code.
func (m *MuxClient) CallV3(ctx context.Context, op string, enc func(b []byte) []byte, dec func(body []byte) error) error {
	return m.call(ctx, op, 0, enc, func(flags byte, body []byte) error {
		if flags&v3FlagJSON != 0 {
			return Errf(CodeProtocol, "op %q: server answered a binary request with a JSON body", op)
		}
		if dec != nil {
			return dec(body)
		}
		return nil
	})
}

// CallJSON performs one JSON-bodied exchange over the pipelined
// connection, for an op registered with Handle: the server routes it
// through the op's derived JSON form, and refuses it with bad_request
// when the op's codec is binary.
func (m *MuxClient) CallJSON(ctx context.Context, op string, req, resp interface{}) error {
	var enc func(b []byte) []byte
	if req != nil {
		//gridmon:nolint wirecode JSON-bodied calls: the client half of the seam Handle derives on the server
		body, err := json.Marshal(req)
		if err != nil {
			return Errf(CodeBadRequest, "op %q: encoding request: %v", op, err)
		}
		enc = func(b []byte) []byte { return append(b, body...) }
	}
	return m.call(ctx, op, v3FlagJSON, enc, func(_ byte, body []byte) error {
		if resp != nil && len(body) > 0 {
			//gridmon:nolint wirecode JSON-bodied calls: the client half of the seam Handle derives on the server
			if err := json.Unmarshal(body, resp); err != nil {
				return Errf(CodeInternal, "op %q: decoding response: %v", op, err)
			}
		}
		return nil
	})
}

// Close closes the connection; every call in flight fails with the
// connection error.
func (m *MuxClient) Close() error { return m.conn.Close() }

// Addr returns the remote address the client is connected to.
func (m *MuxClient) Addr() string {
	if a := m.conn.RemoteAddr(); a != nil {
		return a.String()
	}
	return fmt.Sprintf("%p", m.conn)
}
