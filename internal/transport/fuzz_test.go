package transport

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/binenc"
)

// The server and both kinds of client connection read bytes a peer
// chose. The fuzz targets feed each arbitrary bytes where frames should
// be and hold it to the transport's failure contract: never a panic,
// never a hang — a well-formed answer or a closed connection, and
// everything waiting on the connection is released. The seed corpora
// are checked in under testdata/fuzz, one named file per case (a valid
// call, a cancel for an unknown id, a truncated header, the huge-timeout
// frame, a reply for an unknown id, a stream's ack for another id, ...).

// fuzzServer serves one op of each kind over in-process connections.
func fuzzServer() (*Server, pipeListener) {
	srv := NewServer()
	handleAdd(srv)
	srv.HandleStreamV3("ticks", func(ctx context.Context, body []byte) (V3StreamFunc, *Error) {
		d := binenc.NewDec(body)
		n := d.Uvarint() % 8
		if err := d.Err(); err != nil {
			return nil, AsError(err)
		}
		return func(send V3Send) error {
			for i := uint64(0); i < n; i++ {
				i := i
				if err := send(func(b []byte) []byte { return binenc.AppendUvarint(b, i) }); err != nil {
					return err
				}
			}
			<-ctx.Done() // a stream ends when its client cancels or goes away
			return ctx.Err()
		}, nil
	})
	ln := pipeListener{conns: make(chan net.Conn, 1)}
	srv.mu.Lock()
	srv.ln = ln
	srv.mu.Unlock()
	srv.wg.Add(1)
	go srv.acceptLoop(ln)
	return srv, ln
}

// FuzzV3ServerFrames feeds the accept loop a connection that opens with
// the magic and continues with data. Every answer the server writes must
// be a whole, well-formed response frame; the server must hang up once
// the input ends, and Close must return.
func FuzzV3ServerFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		srv, ln := fuzzServer()
		client, server := duplexPipe()
		ln.conns <- server
		go func() {
			client.Write(v3Magic[:])
			client.Write(data)
			client.CloseWrite()
		}()
		type result struct {
			answers []byte
			err     error
		}
		read := make(chan result, 1)
		go func() {
			answers, err := io.ReadAll(client)
			read <- result{answers, err}
		}()
		var res result
		select {
		case res = <-read:
		case <-time.After(10 * time.Second):
			t.Fatal("the server did not hang up after its input ended")
		}
		client.Close()
		if res.err != nil {
			t.Fatalf("reading the answers: %v", res.err)
		}
		var buf []byte
		rest := bytes.NewReader(res.answers)
		for r := bufio.NewReader(rest); r.Buffered()+rest.Len() > 0; {
			payload, err := readFrameInto(r, &buf)
			if err != nil {
				t.Fatalf("answers end in a partial or oversized frame (%v), %d bytes before the end", err, r.Buffered()+rest.Len())
			}
			checkResponseFrame(t, payload)
		}
		closed := make(chan struct{})
		go func() {
			srv.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatal("Server.Close did not return")
		}
	})
}

// checkResponseFrame fails t unless payload parses as a response frame.
func checkResponseFrame(t *testing.T, payload []byte) {
	t.Helper()
	d := binenc.NewDec(payload)
	kind, _, flags := d.Byte(), d.Uvarint(), d.Byte()
	if flags&v3FlagError != 0 {
		if code := d.String(); code == "" && d.Err() == nil {
			t.Fatalf("error frame without a code: % x", payload)
		}
		_ = d.String() // the message
	}
	if d.Err() != nil || kind < v3Reply || kind > v3End {
		t.Fatalf("malformed response frame (kind %d): % x", kind, payload)
	}
}

// FuzzV3ClientFrames feeds a MuxClient's demux loop data where the
// server's reply frames should be, with one call (request id 1) waiting
// on the connection, then ends the input. Whatever the bytes were, the
// call must return.
func FuzzV3ClientFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		client, peer := duplexPipe()
		m := NewMuxClient(client, 0)
		defer m.Close()
		// The peer swallows what the client sends, reporting the request
		// frame, so the harness knows the call holds its id before the
		// input starts.
		sent := make(chan struct{}, 1)
		go func() {
			r := bufio.NewReader(peer)
			r.Discard(len(v3Magic))
			var buf []byte
			for {
				if _, err := readFrameInto(r, &buf); err != nil {
					return
				}
				sent <- struct{}{}
			}
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		callDone := make(chan struct{})
		go func() {
			defer close(callDone)
			m.CallV3(ctx, "math.add",
				func(b []byte) []byte { return append(b, addBody(19, 23)...) },
				func(body []byte) error {
					d := binenc.NewDec(body)
					d.Uvarint()
					return d.Err()
				})
		}()
		<-sent
		go func() {
			peer.Write(data)
			peer.CloseWrite()
		}()
		select {
		case <-callDone:
		case <-ctx.Done():
			t.Fatal("a call was still waiting after the connection's input ended")
		}
	})
}

// FuzzV3StreamFrames feeds a stream's reader data where the server's
// ack, event and end frames should be, then ends the input. Whatever the
// bytes were, OpenStream must return, and a stream it opened must end —
// with no context to cut either short.
func FuzzV3StreamFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		client, peer := duplexPipe()
		defer peer.Close()
		go io.Copy(io.Discard, peer) // the open frame, and a cancel
		go func() {
			peer.Write(data)
			peer.CloseWrite()
		}()
		done := make(chan struct{})
		go func() {
			defer close(done)
			s, err := OpenStream(context.Background(), client, "ticks", nil)
			if err != nil {
				return
			}
			defer s.Close()
			for s.Recv(func(byte, []byte) error { return nil }) == nil {
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("the stream was still open after its connection's input ended")
		}
	})
}
