// Package transport provides the live-mode wire layer: one protocol —
// length-prefixed binary frames, pipelined and multiplexed by request id
// over TCP (or any net.Conn) — with an op-dispatch Server, the MuxClient
// that calls it and the StreamConn that subscribes to it. Every op is
// registered once in the server's table in exactly one body encoding: a
// typed function whose JSON request/response bodies are derived
// (Handle), a binary codec (HandleV3), or a binary server-push stream
// (HandleStreamV3). Failures carry structured error codes and the
// client's context deadline is propagated to the server. The frame
// layout is documented in v3.go, the clients in mux.go and stream.go;
// bodies are built from internal/binenc. The monitoring services'
// engines are pure request/response logic; this package makes them
// network services a real client can query, complementing the simulated
// testbed used for the experiments.
package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"sort"
	"sync"
)

// MaxFrame bounds a single message (16 MiB), protecting servers from
// runaway payloads.
const MaxFrame = 16 << 20

// opEntry is one row of the server's op table: a call op's handler and
// whether its bodies are JSON, or a stream op's opener.
type opEntry struct {
	call   V3Handler
	json   bool
	stream v3StreamOpen
}

// Server dispatches framed requests to the ops registered in its table.
// Handlers run in parallel — across connections and, pipelined, within
// one — so they do their own locking.
type Server struct {
	mu     sync.Mutex
	ops    map[string]opEntry
	ln     net.Listener
	wg     sync.WaitGroup
	conns  map[net.Conn]bool
	closed bool
	// WrapConn, when non-nil, wraps every accepted connection before the
	// server reads from it — the fault-injection seam mirroring
	// storage's Options.WrapWAL: the chaos tests install a faultconn
	// wrapper here to inject latency, stalls, partial writes and
	// mid-frame resets between real clients and real handlers. Set it
	// before Listen; production servers leave it nil.
	WrapConn func(net.Conn) net.Conn
}

// NewServer returns a server with only the built-in "ops.list"
// introspection op registered.
func NewServer() *Server {
	s := &Server{
		ops:   make(map[string]opEntry),
		conns: make(map[net.Conn]bool),
	}
	Handle(s, "ops.list", func(context.Context, struct{}) (OpsList, error) {
		return OpsList{Ops: s.Ops()}, nil
	})
	return s
}

// Handle registers a typed handler for op on s, replacing any previous
// registration. The op takes JSON bodies only: the request body is decoded
// into Req, the handler's Resp is encoded as the response body, and a
// returned error becomes a structured error frame (keeping its Code when
// it is a *Error). The context carries the client's propagated deadline,
// when it sent one.
func Handle[Req, Resp any](s *Server, op string, fn func(context.Context, Req) (Resp, error)) {
	call := func(ctx context.Context, body, out []byte) ([]byte, *Error) {
		var req Req
		if len(body) > 0 {
			//gridmon:nolint wirecode the derived JSON form of an op: this is the seam where typed requests meet JSON bodies
			if err := json.Unmarshal(body, &req); err != nil {
				return nil, Errf(CodeBadRequest, "op %q: decoding request: %v", op, err)
			}
		}
		resp, err := fn(ctx, req)
		if err != nil {
			return nil, AsError(err)
		}
		//gridmon:nolint wirecode the derived JSON form of an op: this is the seam where typed responses meet JSON bodies
		b, err := json.Marshal(resp)
		if err != nil {
			return nil, Errf(CodeInternal, "op %q: encoding response: %v", op, err)
		}
		return append(out, b...), nil
	}
	s.register(op, opEntry{call: call, json: true})
}

// register installs op's table row, replacing any previous registration.
func (s *Server) register(op string, e opEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops[op] = e
}

// OpsList is the response of the built-in "ops.list" introspection op:
// every registered op name, sorted.
type OpsList struct {
	Ops []string `json:"ops"`
}

// Ops lists the registered operation names, sorted.
func (s *Server) Ops() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.ops))
	for op := range s.ops {
		out = append(out, op)
	}
	sort.Strings(out)
	return out
}

// Listen starts accepting connections on addr ("127.0.0.1:0" picks a free
// port) and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if s.WrapConn != nil {
			// The wrapped conn is what gets stored and closed, so a
			// wrapper's own teardown (releasing a stall, say) runs when
			// the server shuts the connection down.
			conn = s.WrapConn(conn)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.serveConn(conn)
		}()
	}
}

// serveConn answers requests on one connection until it closes. A client
// opens its connection with the magic preamble (see v3.go); a peer whose
// first bytes are anything else — an old JSON-framed client, a stray
// probe — is not answered in a dialect this server no longer speaks: the
// connection is closed.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	if magic, err := r.Peek(4); err != nil || !bytes.Equal(magic, v3Magic[:]) {
		return
	}
	r.Discard(4)
	s.serveConnV3(conn, r)
}

// Close stops the listener, closes every open connection (terminating
// any streams they carry), and waits for in-flight handlers.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}
