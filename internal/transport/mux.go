package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/binenc"
)

// This file is the client half of the wire format: a pipelined,
// multiplexing connection. A MuxClient assigns each call a request id,
// writes frames back-to-back, and a demux goroutine routes responses to
// per-call completion channels — so K callers share one connection with
// their calls in flight simultaneously, bounded by maxInFlight. Streams
// multiplex over the same connection by id, interleaving with calls.

// DefaultMaxInFlight bounds a MuxClient's concurrently in-flight calls
// when the dialer does not choose a bound.
const DefaultMaxInFlight = 32

// muxReply is one demultiplexed response frame, handed from the demux
// goroutine to the waiting call or stream. body is pooled; the receiver
// releases it.
type muxReply struct {
	kind  byte
	flags byte
	code  Code
	msg   string
	body  *wireBuf
}

// err converts an error reply to its structured error.
func (r *muxReply) err() *Error {
	code := r.code
	if code == "" {
		code = CodeExec
	}
	return &Error{Code: code, Message: r.msg}
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
// connection-level failure fails every in-flight call and stream with
// the same error; the client is then dead and must be re-dialed (the
// resilient RemoteGrid layers retry/reconnect on top).
type MuxClient struct {
	conn   net.Conn
	wmu    sync.Mutex // serializes frame writes + flush
	w      *bufio.Writer
	length [4]byte // guarded by wmu: the frame length being written

	mu      sync.Mutex
	nextID  uint64
	calls   map[uint64]chan muxReply
	free    []chan muxReply // guarded by mu: reply channels for register to reuse
	streams map[uint64]*MuxStream
	err     error // terminal connection error, set once

	sem chan struct{} // in-flight call slots
}

// DialV3 connects to a server. maxInFlight bounds pipelined in-flight
// calls (0 uses DefaultMaxInFlight).
func DialV3(ctx context.Context, addr string, maxInFlight int) (*MuxClient, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewMuxClient(conn, maxInFlight), nil
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
		conn:    conn,
		w:       bufio.NewWriter(conn),
		calls:   make(map[uint64]chan muxReply),
		streams: make(map[uint64]*MuxStream),
		sem:     make(chan struct{}, maxInFlight),
	}
	m.w.Write(v3Magic[:])
	go m.readLoop()
	return m
}

// readLoop is the demux goroutine: it reads response frames for the
// connection's lifetime and routes each to its call or stream by id. It
// is the only reader and the only code that terminates streams, so
// stream channels close exactly once.
func (m *MuxClient) readLoop() {
	r := bufio.NewReader(m.conn)
	var buf []byte
	for {
		payload, err := readFrameInto(r, &buf)
		if err != nil {
			m.fail(err)
			return
		}
		d := binenc.NewDec(payload)
		kind := d.Byte()
		id := d.Uvarint()
		flags := d.Byte()
		reply := muxReply{kind: kind, flags: flags}
		if flags&v3FlagError != 0 {
			reply.code = Code(d.String())
			reply.msg = d.String()
		}
		if d.Err() != nil {
			m.fail(Errf(CodeProtocol, "transport: malformed v3 response frame"))
			return
		}
		if rest := d.Rest(); len(rest) > 0 {
			reply.body = getBuf()
			reply.body.b = append(reply.body.b, rest...)
		}
		switch kind {
		case v3Reply:
			m.mu.Lock()
			ch := m.calls[id]
			delete(m.calls, id)
			m.mu.Unlock()
			if ch != nil {
				ch <- reply // buffered: never blocks
			} else {
				// The caller gave up (context done) before the server
				// answered; drop the late response.
				reply.release()
			}
		case v3Ack, v3Event, v3End:
			m.mu.Lock()
			ms := m.streams[id]
			if kind == v3End {
				delete(m.streams, id)
			}
			m.mu.Unlock()
			if ms == nil {
				reply.release()
				continue
			}
			// push never blocks: the demux loop must keep routing call
			// replies even when a stream's consumer has stalled.
			if ms.push(reply, kind == v3End) {
				m.mu.Lock()
				delete(m.streams, id)
				m.mu.Unlock()
				// Best effort: stop the server producing for a dead
				// stream. A write failure is connection-fatal and
				// surfaces on this loop's next read.
				ms.Cancel()
			}
		default:
			m.fail(Errf(CodeProtocol, "transport: unknown v3 response kind %d", kind))
			return
		}
	}
}

// fail terminates the connection: every pending call's channel closes
// (callers observe Err) and every open stream ends with the error.
func (m *MuxClient) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	calls := m.calls
	streams := m.streams
	m.calls = make(map[uint64]chan muxReply)
	m.streams = make(map[uint64]*MuxStream)
	m.mu.Unlock()
	for _, ch := range calls {
		close(ch)
	}
	for _, ms := range streams {
		ms.terminate(err)
	}
	// The connection is unusable either way; closing it makes sure the
	// demux goroutine's blocking read returns too.
	m.conn.Close()
}

// Err returns the connection's terminal error, or nil while it is live.
func (m *MuxClient) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// connErr is what a call returns when the connection died under it.
func (m *MuxClient) connErr() error {
	if err := m.Err(); err != nil {
		return err
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
		if reply.flags&v3FlagError != 0 {
			return reply.err()
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

// maxStreamInbox bounds the frames a stream queues client-side between
// the demux loop and its consumer. The demux loop must never block on a
// stream (a blocked demux loop would also stall every call reply behind
// it — head-of-line deadlock when one goroutine interleaves Recv with
// calls), so a consumer that falls this far behind has its stream
// killed with CodeOverloaded instead of wedging the connection. The
// gridmon pump drains promptly (Stream.emit drops, never blocks), so
// the cap only bites raw-API consumers that stopped receiving.
const maxStreamInbox = 256

// MuxStream is one open server-push stream multiplexed on a MuxClient.
// Recv is single-reader; Cancel may be called from any goroutine.
type MuxStream struct {
	m  *MuxClient
	id uint64

	qMu       sync.Mutex
	q         []muxReply    // guarded by qMu: FIFO inbox, demux loop appends
	qHead     int           // guarded by qMu: next frame to hand to Recv
	done      bool          // guarded by qMu: no further frames will arrive
	failErr   error         // guarded by qMu: terminal error once queue drains
	abandoned bool          // guarded by qMu: consumer gave up; frames released on arrival
	notify    chan struct{} // cap-1 doorbell: push signals, next re-checks

	cancelMu sync.Mutex
	canceled bool
}

// push hands one frame from the demux loop to the stream's inbox. It
// never blocks; an inbox already holding maxStreamInbox frames reports
// overflow (the frame is released and the stream marked failed — the
// caller detaches it and cancels the server side).
func (s *MuxStream) push(reply muxReply, last bool) (overflow bool) {
	s.qMu.Lock()
	if s.done || s.abandoned {
		s.qMu.Unlock()
		reply.release()
		return false
	}
	if !last && len(s.q)-s.qHead >= maxStreamInbox {
		s.done = true
		s.failErr = Errf(CodeOverloaded,
			"transport: stream consumer fell %d frames behind; stream dropped", maxStreamInbox)
		s.qMu.Unlock()
		reply.release()
		s.notifyOne()
		return true
	}
	s.q = append(s.q, reply)
	if last {
		s.done = true
	}
	s.qMu.Unlock()
	s.notifyOne()
	return false
}

// next blocks until a queued frame is available and pops it. Once the
// stream is done and drained it returns the terminal error; a signal on
// cancel returns errStreamWaitCanceled (the handshake's ctx path).
func (s *MuxStream) next(cancel <-chan struct{}) (muxReply, error) {
	for {
		s.qMu.Lock()
		if s.qHead < len(s.q) {
			reply := s.q[s.qHead]
			s.q[s.qHead] = muxReply{}
			s.qHead++
			if s.qHead == len(s.q) {
				s.q, s.qHead = s.q[:0], 0
			}
			s.qMu.Unlock()
			return reply, nil
		}
		if s.done {
			err := s.failErr
			s.qMu.Unlock()
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return muxReply{}, err
		}
		s.qMu.Unlock()
		select {
		case <-s.notify:
		case <-cancel:
			return muxReply{}, errStreamWaitCanceled
		}
	}
}

// errStreamWaitCanceled is next's cancel-channel result, only ever seen
// inside the OpenStreamV3 handshake.
var errStreamWaitCanceled = errors.New("transport: stream wait canceled")

// terminate marks the stream failed with err: already-queued frames
// still drain, then Recv returns err. Idempotent; the first terminal
// state wins.
func (s *MuxStream) terminate(err error) {
	s.qMu.Lock()
	if !s.done {
		s.done = true
		s.failErr = err
	}
	s.qMu.Unlock()
	s.notifyOne()
}

// notifyOne rings the consumer's doorbell without blocking.
func (s *MuxStream) notifyOne() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// OpenStreamV3 opens a binary-bodied server-push stream for op: enc
// appends the request body, and the returned MuxStream receives event
// frames. Setup failures return here with their structured code. The
// connection is NOT dedicated to the stream — calls keep multiplexing,
// and a stalled consumer never blocks them: frames queue client-side up
// to maxStreamInbox, past which the stream alone is killed with
// CodeOverloaded. Dedicate a connection per long-lived stream (as
// RemoteGrid.Subscribe does) when even that loss is unacceptable.
func (m *MuxClient) OpenStreamV3(ctx context.Context, op string, enc func(b []byte) []byte) (*MuxStream, error) {
	if err := ctx.Err(); err != nil {
		return nil, AsError(err)
	}
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		return nil, err
	}
	m.nextID++
	id := m.nextID
	ms := &MuxStream{m: m, id: id, notify: make(chan struct{}, 1)}
	m.streams[id] = ms
	m.mu.Unlock()
	pb := getBuf()
	b, err := appendCallHeader(pb.b, v3Open, id, op, 0, ctx)
	if err == nil {
		if enc != nil {
			b = enc(b)
		}
		pb.b = b[:0]
		err = m.writeFrame(b)
	}
	putBuf(pb)
	if err != nil {
		m.dropStream(id)
		return nil, err
	}
	// The handshake: the first frame is the ack, or an end frame carrying
	// the setup error.
	reply, nerr := ms.next(ctx.Done())
	if nerr != nil {
		if errors.Is(nerr, errStreamWaitCanceled) {
			ms.Cancel()
			ms.abandon()
			return nil, Errf(AsError(ctx.Err()).Code, "op %q: %v", op, ctx.Err())
		}
		return nil, m.connErr()
	}
	if reply.kind == v3End {
		reply.release()
		if reply.flags&v3FlagError != 0 {
			return nil, reply.err()
		}
		return nil, Errf(CodeProtocol, "op %q: stream ended before it was acknowledged", op)
	}
	reply.release()
	if reply.kind != v3Ack {
		ms.abandon()
		return nil, Errf(CodeProtocol, "op %q: expected stream ack, got frame kind %d", op, reply.kind)
	}
	return ms, nil
}

// dropStream removes a stream registration that never acknowledged.
func (m *MuxClient) dropStream(id uint64) {
	m.mu.Lock()
	delete(m.streams, id)
	m.mu.Unlock()
}

// abandon releases everything queued and marks the stream so frames
// still in flight are released on arrival — the reader gave up.
func (s *MuxStream) abandon() {
	s.qMu.Lock()
	for i := s.qHead; i < len(s.q); i++ {
		s.q[i].release()
	}
	s.q, s.qHead = nil, 0
	s.abandoned = true
	s.qMu.Unlock()
}

// Recv waits for the next event frame and hands its flags and body to
// handle (the body is pooled and only valid during the callback). It
// returns io.EOF on a clean end of stream, the server's structured error
// on a failed one, and the connection error if the connection died.
func (s *MuxStream) Recv(handle func(flags byte, body []byte) error) error {
	reply, err := s.next(nil)
	if err != nil {
		return err
	}
	defer reply.release()
	switch reply.kind {
	case v3Event:
		var body []byte
		if reply.body != nil {
			body = reply.body.b
		}
		return handle(reply.flags, body)
	case v3End:
		if reply.flags&v3FlagError != 0 {
			return reply.err()
		}
		return io.EOF
	default:
		return Errf(CodeProtocol, "transport: unexpected frame kind %d on open stream", reply.kind)
	}
}

// Cancel asks the server to stop the stream; the server detaches its
// sources and sends the end frame, which Recv observes. Idempotent.
func (s *MuxStream) Cancel() error {
	s.cancelMu.Lock()
	defer s.cancelMu.Unlock()
	if s.canceled {
		return nil
	}
	s.canceled = true
	pb := getBuf()
	b := append(pb.b, v3Cancel)
	b = binenc.AppendUvarint(b, s.id)
	pb.b = b[:0]
	err := s.m.writeFrame(b)
	putBuf(pb)
	return err
}

// Close closes the underlying connection (the abrupt teardown; prefer
// Cancel followed by draining Recv for a clean one).
func (m *MuxClient) Close() error { return m.conn.Close() }

// Addr returns the remote address the client is connected to.
func (m *MuxClient) Addr() string {
	if a := m.conn.RemoteAddr(); a != nil {
		return a.String()
	}
	return fmt.Sprintf("%p", m.conn)
}
