package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"io"
	"net"
	"sync/atomic"
)

// This file is the client half of a server-push stream. A stream owns
// its connection: the client opens it with the magic and one
// stream-open frame, then reads the ack, the event frames and the end
// frame straight off the socket — one reader, no queue in between. The
// only frame it writes afterwards is the cancel. (A server still serves
// a peer that interleaves calls with streams on one connection; see
// serveStreamV3.)

// streamID is the request id of the one stream a StreamConn carries.
const streamID = 1

// streamCancel is the whole cancel frame for streamID.
var streamCancel = [...]byte{0, 0, 0, 2, v3Cancel, streamID}

// StreamConn is one open server-push stream on a connection of its own.
// Recv is single-reader; Cancel and Close may be called from any
// goroutine.
type StreamConn struct {
	conn     net.Conn
	r        *bufio.Reader
	buf      []byte // the frame Recv read last; its body is a view into it
	canceled atomic.Bool
}

// OpenStream opens a binary-bodied stream for op on conn, which the
// stream owns from then on: enc appends the request body, and the
// returned StreamConn receives the event frames. OpenStream waits for
// the server's ack; a setup failure returns here with its structured
// code. ctx bounds the open and that wait, not the stream: when it ends
// first, the connection is closed and ctx's code returned. On any error
// conn is closed.
func OpenStream(ctx context.Context, conn net.Conn, op string, enc func(b []byte) []byte) (s *StreamConn, err error) {
	defer func() {
		if err != nil {
			conn.Close()
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, AsError(err)
	}
	pb := getBuf()
	defer putBuf(pb)
	b := append(pb.b, v3Magic[:]...)
	b = append(b, 0, 0, 0, 0) // the frame length, set once the body is in
	b, err = appendCallHeader(b, v3Open, streamID, op, 0, ctx)
	if err != nil {
		return nil, err
	}
	if enc != nil {
		b = enc(b)
	}
	pb.b = b[:0]
	n := len(b) - len(v3Magic) - 4
	if n > MaxFrame {
		return nil, Errf(CodeBadRequest, "transport: v3 frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(b[len(v3Magic):], uint32(n))
	// Nothing else uses the connection, so closing it is how ctx
	// interrupts the write and the wait for the ack.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	s = &StreamConn{conn: conn, r: bufio.NewReader(conn)}
	var ack v3Response
	if _, err = conn.Write(b); err == nil {
		ack, err = s.next()
	}
	if !stop() {
		return nil, Errf(AsError(ctx.Err()).Code, "op %q: %v", op, ctx.Err())
	}
	switch {
	case err != nil:
		return nil, err
	case ack.kind == v3End:
		return nil, Errf(CodeProtocol, "op %q: stream ended before it was acknowledged", op)
	case ack.kind != v3Ack:
		return nil, Errf(CodeProtocol, "op %q: expected stream ack, got frame kind %d", op, ack.kind)
	}
	return s, nil
}

// next reads the stream's next frame. A frame that carries an error
// returns it, with its structured code; a frame that is malformed, of a
// call's kind or an unknown one, or for another request id fails the
// stream with CodeProtocol. The body is a view valid until the next
// read.
func (s *StreamConn) next() (v3Response, error) {
	payload, err := readFrameInto(s.r, &s.buf)
	if err == io.EOF {
		// Only the end frame ends a stream cleanly.
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return v3Response{}, err
	}
	resp, ok := parseV3Response(payload)
	switch {
	case !ok:
		return v3Response{}, Errf(CodeProtocol, "transport: malformed v3 response frame")
	case resp.id != streamID || resp.kind < v3Ack || resp.kind > v3End:
		return v3Response{}, Errf(CodeProtocol, "transport: unexpected frame (kind %d, id %d) on a stream", resp.kind, resp.id)
	case resp.err != nil:
		return v3Response{}, resp.err
	}
	return resp, nil
}

// Recv reads the next event frame and hands its flags and body to
// handle (the body is only valid during the callback). It returns
// io.EOF on a clean end of stream, the server's structured error on a
// failed one, and the connection's error if the connection died. After
// an error the stream is over; Close releases its connection.
func (s *StreamConn) Recv(handle func(flags byte, body []byte) error) error {
	resp, err := s.next()
	switch {
	case err != nil:
		return err
	case resp.kind == v3Event:
		return handle(resp.flags, resp.body)
	case resp.kind == v3End:
		return io.EOF
	}
	return Errf(CodeProtocol, "transport: unexpected frame kind %d on open stream", resp.kind)
}

// Cancel asks the server to stop the stream; the server detaches its
// sources and sends the end frame, which Recv observes. Idempotent.
func (s *StreamConn) Cancel() error {
	if s.canceled.Swap(true) {
		return nil
	}
	_, err := s.conn.Write(streamCancel[:])
	return err
}

// Close closes the stream's connection: the abrupt teardown, which also
// ends a Recv in progress. Cancel, then Recv until it returns, is the
// clean one.
func (s *StreamConn) Close() error { return s.conn.Close() }
