package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/binenc"
)

// This file is the server half of the wire format: length-prefixed
// binary frames with pipelining. A client opens its connection with a
// 4-byte magic; the server checks it at accept time (see serveConn) and
// closes a connection that opens with anything else.
//
// Every request frame carries a client-assigned request id. The
// server answers calls concurrently — on per-connection workers, at
// most DefaultMaxPipeline of them — and writes each response as its
// handler completes: completion order, not arrival order, so one slow
// call does not block the line. The call client demultiplexes by id
// (see mux.go); the stream client owns its connection (stream.go).
//
// Request payload layout (after the 4-byte length envelope):
//
//	byte    kind         1=call  2=stream open  3=stream cancel
//	uvarint id
//	-- cancel frames end here --
//	string  op           uvarint length + bytes
//	byte    flags        bit0: body is JSON
//	uvarint timeout_ms   0 = no deadline
//	...     body         the rest of the frame, opaque to this layer
//
// Response payload layout:
//
//	byte    kind         1=reply  2=stream ack  3=stream event  4=stream end
//	uvarint id
//	byte    flags        bit0: body is JSON   bit1: error
//	-- on error: string code, string message (no body) --
//	...     body         the rest of the frame
//
// Bodies are opaque here, and every op has exactly one encoding: a call
// op registered with HandleV3 and a stream op (HandleStreamV3) take
// binary bodies, which their codecs decode and encode with the codec
// primitives; a call op registered with Handle takes JSON bodies and is
// answered with the JSON flag set. A body whose JSON flag disagrees with
// its op's encoding is refused with bad_request before any handler runs.

// v3Magic is the preamble a client opens its connection with. Read as a
// big-endian frame length it is 1.19 GiB — far beyond MaxFrame — so a
// peer that starts with a length-prefixed frame instead of the preamble
// can never be mistaken for a client.
var v3Magic = [4]byte{'G', 'M', '3', 0x01}

// Request frame kinds.
const (
	v3Call   = 1
	v3Open   = 2
	v3Cancel = 3
)

// Response frame kinds.
const (
	v3Reply = 1
	v3Ack   = 2
	v3Event = 3
	v3End   = 4
)

// Frame flags.
const (
	v3FlagJSON  = 1 << 0
	v3FlagError = 1 << 1
)

// DefaultMaxPipeline bounds how many calls one v3 connection may have
// dispatched concurrently on the server — the number of call workers it
// may start; past it the read loop stops picking up frames, which
// backpressures the client through TCP.
const DefaultMaxPipeline = 64

// V3Handler answers one call: body is the request payload (a view valid
// only for the duration of the call), and the response payload is
// appended to out (pooled by the server) and returned. A returned *Error
// reaches the client with its code intact.
type V3Handler func(ctx context.Context, body []byte, out []byte) ([]byte, *Error)

// V3Send writes one binary event frame on an open v3 stream: fill
// appends the frame body to the buffer it is handed (pooled by the
// server) and returns it.
type V3Send func(fill func(b []byte) []byte) error

// V3StreamFunc pumps one open v3 stream, calling send once per event
// frame; returning ends the stream (nil or a context cancellation end it
// cleanly, anything else reaches the client as a structured end frame).
type V3StreamFunc func(send V3Send) error

// v3StreamOpen is the stored form of a binary stream handler.
type v3StreamOpen func(ctx context.Context, body []byte) (V3StreamFunc, *Error)

// HandleV3 registers a binary call handler for op, replacing any
// previous registration: h answers binary-bodied calls straight from and
// into the frame buffers, and a JSON-bodied call of op is refused.
func (s *Server) HandleV3(op string, h V3Handler) {
	s.register(op, opEntry{call: h})
}

// HandleStreamV3 registers a binary stream handler for op, replacing any
// previous registration. open validates the request and attaches sources;
// the returned V3StreamFunc runs for the stream's lifetime with ctx
// cancelled when the client cancels or the connection drops.
func (s *Server) HandleStreamV3(op string, open func(ctx context.Context, body []byte) (V3StreamFunc, *Error)) {
	s.register(op, opEntry{stream: open})
}

// v3ConnWriter serializes response frames onto one v3 connection: header
// and body are written as separate sections under the lock, so handlers
// build bodies in their own buffers without a final copy.
type v3ConnWriter struct {
	mu     sync.Mutex
	w      *bufio.Writer
	length [4]byte // guarded by mu: the frame length being written
}

// writeSplit writes one frame whose payload is hdr followed by body.
func (cw *v3ConnWriter) writeSplit(hdr, body []byte) error {
	total := len(hdr) + len(body)
	if total > MaxFrame {
		return Errf(CodeInternal, "transport: v3 frame of %d bytes exceeds limit", total)
	}
	cw.mu.Lock()
	defer cw.mu.Unlock()
	binary.BigEndian.PutUint32(cw.length[:], uint32(total))
	if _, err := cw.w.Write(cw.length[:]); err != nil {
		return err
	}
	if _, err := cw.w.Write(hdr); err != nil {
		return err
	}
	if len(body) > 0 {
		if _, err := cw.w.Write(body); err != nil {
			return err
		}
	}
	return cw.w.Flush()
}

// appendV3RespHeader appends a response frame header for id.
func appendV3RespHeader(b []byte, kind byte, id uint64, flags byte) []byte {
	b = append(b, kind)
	b = binenc.AppendUvarint(b, id)
	return append(b, flags)
}

// v3Response is one response frame as a client reads it.
type v3Response struct {
	kind  byte
	id    uint64
	flags byte
	err   *Error // the error an error-flagged frame carries
	body  []byte // the rest of the frame, a view into it
}

// parseV3Response reads a response frame's header; ok is false when it
// is malformed. An error frame with no code reads as CodeExec.
func parseV3Response(payload []byte) (resp v3Response, ok bool) {
	d := binenc.NewDec(payload)
	resp = v3Response{kind: d.Byte(), id: d.Uvarint(), flags: d.Byte()}
	if resp.flags&v3FlagError != 0 {
		resp.err = &Error{Code: Code(d.String()), Message: d.String()}
		if resp.err.Code == "" {
			resp.err.Code = CodeExec
		}
	}
	resp.body = d.Rest()
	return resp, d.Err() == nil
}

// v3Error writes an error response frame for id.
func (cw *v3ConnWriter) v3Error(kind byte, id uint64, e *Error) error {
	hdr := getBuf()
	defer putBuf(hdr)
	code := e.Code
	if code == "" {
		code = CodeExec
	}
	b := appendV3RespHeader(hdr.b, kind, id, v3FlagError)
	b = binenc.AppendString(b, string(code))
	b = binenc.AppendString(b, e.Message)
	return cw.writeSplit(b, nil)
}

// v3Job is one call the read loop hands a connection worker: the op
// already resolved to the handler that answers it (or to the error that
// answers instead), and the request body in a pooled buffer the worker
// releases.
type v3Job struct {
	id        uint64
	h         V3Handler
	respFlags byte
	herr      *Error
	timeoutMS uint64
	pb        *wireBuf
}

// serveConnV3 answers pipelined frames on one connection until it
// closes. The magic has already been consumed by serveConn.
func (s *Server) serveConnV3(conn net.Conn, r *bufio.Reader) {
	cw := &v3ConnWriter{w: bufio.NewWriter(conn)}
	// Workers and stream goroutines must drain before the connection
	// teardown returns, so Server.Close keeps its contract of waiting
	// out in-flight handlers.
	var wg sync.WaitGroup
	defer wg.Wait()
	// Calls go to the connection's workers over jobs. A worker is started
	// only when no idle one takes the call at once, so a connection keeps
	// as many as its deepest pipeline needed, at most DefaultMaxPipeline;
	// at the bound the read loop waits for one to finish. Closing jobs
	// when the read loop returns, however it returns, lets every worker
	// exit once its call is answered.
	jobs := make(chan v3Job)
	workers := 0
	defer close(jobs)
	// Open streams by request id, for cancel routing; every one is
	// cancelled when the read loop exits, however it exits.
	var streamMu sync.Mutex
	streams := make(map[uint64]context.CancelFunc)
	defer func() {
		streamMu.Lock()
		for _, cancel := range streams {
			cancel()
		}
		streamMu.Unlock()
	}()
	var frameBuf []byte
	for {
		payload, err := readFrameInto(r, &frameBuf)
		if err != nil {
			return
		}
		d := binenc.NewDec(payload)
		kind := d.Byte()
		id := d.Uvarint()
		if kind == v3Cancel {
			if d.Err() != nil {
				return
			}
			streamMu.Lock()
			if cancel := streams[id]; cancel != nil {
				cancel()
			}
			streamMu.Unlock()
			continue
		}
		op := d.Bytes()
		flags := d.Byte()
		timeoutMS := d.Uvarint()
		if d.Err() != nil || (kind != v3Call && kind != v3Open) {
			// A malformed frame means the two sides disagree about the
			// framing itself; nothing sensible can follow on this
			// connection.
			return
		}
		// The body aliases the read buffer, which the next loop iteration
		// reuses — copy it into a pooled buffer that the worker or stream
		// goroutine owns and releases.
		pb := getBuf()
		pb.b = append(pb.b, d.Rest()...)
		if kind == v3Open {
			op := string(op)
			//gridmon:nolint ctxflow server-side stream root: the client cancels with a wire frame, which the cancel routing above turns into this ctx's cancel
			ctx, cancel := context.WithCancel(context.Background())
			streamMu.Lock()
			streams[id] = cancel
			streamMu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					streamMu.Lock()
					delete(streams, id)
					streamMu.Unlock()
					cancel()
				}()
				s.serveStreamV3(ctx, cw, id, op, flags, pb)
			}()
			continue
		}
		job := v3Job{id: id, timeoutMS: timeoutMS, pb: pb}
		job.h, job.respFlags, job.herr = s.resolveCall(op, flags)
		select {
		case jobs <- job: // an idle worker took it
			continue
		default:
		}
		if workers == DefaultMaxPipeline {
			jobs <- job
			continue
		}
		workers++
		wg.Add(1)
		go s.v3Worker(cw, jobs, &wg, job)
	}
}

// v3Worker is one call worker of a connection: it answers first, then
// every call the read loop hands it, until the read loop closes jobs.
func (s *Server) v3Worker(cw *v3ConnWriter, jobs <-chan v3Job, wg *sync.WaitGroup, first v3Job) {
	defer wg.Done()
	for job, ok := first, true; ok; job, ok = <-jobs {
		s.dispatchV3(cw, job)
	}
}

// resolveCall finds what answers a call of op sent with the given
// request flags: the op's handler, answering with the JSON flag set when
// the op's bodies are JSON. A body in the other encoding never reaches
// the handler (it would see garbage). op is a view into the read buffer;
// the lookup does not copy it, and only an op that cannot answer — whose
// error names it — costs a string.
func (s *Server) resolveCall(op []byte, flags byte) (h V3Handler, respFlags byte, herr *Error) {
	s.mu.Lock()
	e := s.ops[string(op)]
	s.mu.Unlock()
	switch {
	case e.stream != nil:
		return nil, 0, Errf(CodeBadRequest, "op %q is a streaming op (open it as a stream)", string(op))
	case e.call == nil:
		return nil, 0, Errf(CodeUnknownOp, "unknown op %q (try ops.list)", string(op))
	case e.json && flags&v3FlagJSON == 0:
		return nil, 0, Errf(CodeBadRequest, "op %q has no binary codec on this server (send a JSON body)", string(op))
	case !e.json && flags&v3FlagJSON != 0:
		return nil, 0, Errf(CodeBadRequest, "op %q takes a binary body on this server (it has no JSON form)", string(op))
	case e.json:
		return e.call, v3FlagJSON, nil
	}
	return e.call, 0, nil
}

// maxTimeoutMS is the longest wire deadline that still fits a
// time.Duration; a frame asking for more is asking for "no deadline in
// practice" and gets the longest one representable instead of a wrapped,
// already-expired one.
const maxTimeoutMS = uint64(math.MaxInt64 / int64(time.Millisecond))

// dispatchV3 runs one call and writes its response frame. It owns and
// releases the job's body buffer.
func (s *Server) dispatchV3(cw *v3ConnWriter, job v3Job) {
	defer putBuf(job.pb)
	if job.herr != nil {
		cw.v3Error(v3Reply, job.id, job.herr)
		return
	}
	//gridmon:nolint ctxflow server-side root: the caller's deadline arrives on the wire and is re-armed via WithTimeout below
	ctx := context.Background()
	if timeoutMS := job.timeoutMS; timeoutMS > 0 {
		if timeoutMS > maxTimeoutMS {
			timeoutMS = maxTimeoutMS
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(timeoutMS)*time.Millisecond)
		defer cancel()
	}
	out := getBuf()
	defer putBuf(out)
	body, herr := job.h(ctx, job.pb.b, out.b)
	if body != nil {
		// The handler may have grown the buffer; keep the grown backing
		// array when it returns to the pool.
		out.b = body[:0]
	}
	if herr != nil {
		cw.v3Error(v3Reply, job.id, herr)
		return
	}
	hdr := getBuf()
	defer putBuf(hdr)
	cw.writeSplit(appendV3RespHeader(hdr.b, v3Reply, job.id, job.respFlags), body)
}

// serveStreamV3 runs one stream: ack, event frames, end frame. It does
// not own the connection: its frames go out under the connection writer,
// so a peer that sends calls or opens more streams on the same
// connection is answered between the events. It owns and releases pb.
func (s *Server) serveStreamV3(ctx context.Context, cw *v3ConnWriter, id uint64, op string, flags byte, pb *wireBuf) {
	s.mu.Lock()
	open := s.ops[op].stream
	s.mu.Unlock()
	var run V3StreamFunc
	var herr *Error
	switch {
	case open == nil:
		herr = Errf(CodeUnknownOp, "no stream op %q registered (try ops.list)", op)
	case flags&v3FlagJSON != 0:
		herr = Errf(CodeBadRequest, "stream op %q takes a binary body", op)
	default:
		run, herr = open(ctx, pb.b)
	}
	putBuf(pb)
	if herr != nil {
		cw.v3Error(v3End, id, herr)
		return
	}
	hdr := getBuf()
	if err := cw.writeSplit(appendV3RespHeader(hdr.b, v3Ack, id, 0), nil); err != nil {
		putBuf(hdr)
		return
	}
	putBuf(hdr)
	send := func(fill func(b []byte) []byte) error {
		if err := ctx.Err(); err != nil {
			return AsError(err)
		}
		fb := getBuf()
		defer putBuf(fb)
		b := appendV3RespHeader(fb.b, v3Event, id, 0)
		b = fill(b)
		return cw.writeSplit(b, nil)
	}
	err := run(send)
	if e := AsError(err); err != nil && e.Code != CodeCanceled && e.Code != CodeDeadline {
		cw.v3Error(v3End, id, e)
		return
	}
	eb := getBuf()
	defer putBuf(eb)
	cw.writeSplit(appendV3RespHeader(eb.b, v3End, id, 0), nil)
}
