package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// This file is the frame-buffer layer under the wire format (see v3.go):
// a pool of frame buffers so steady-state framing does not allocate, and
// the one frame reader. What goes inside a frame is composed from the
// primitives of internal/binenc.

// wireBuf is a pooled grow-only scratch buffer for frame payloads.
type wireBuf struct{ b []byte }

var wireBufPool = sync.Pool{
	New: func() interface{} { return &wireBuf{b: make([]byte, 0, 4096)} },
}

// getBuf takes a scratch buffer from the pool (length 0).
func getBuf() *wireBuf {
	pb := wireBufPool.Get().(*wireBuf)
	pb.b = pb.b[:0]
	return pb
}

// putBuf returns a scratch buffer to the pool. Buffers grown past 1 MiB
// are dropped instead, so one giant frame does not pin its memory in the
// pool forever.
func putBuf(pb *wireBuf) {
	if cap(pb.b) > 1<<20 {
		return
	}
	wireBufPool.Put(pb)
}

// readFrameInto reads one length-prefixed frame (4-byte big-endian
// length, then the payload) into *buf — growing it only when a frame
// exceeds its capacity, so a long-lived read loop stops paying one
// allocation per frame — and returns the payload as a view into it,
// valid until the next call. The length is peeked in r's own buffer, so
// reading it costs nothing either.
func readFrameInto(r *bufio.Reader, buf *[]byte) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	// Bounds-check before any int conversion: on 32-bit platforms a
	// length above MaxInt32 would wrap negative and sail past the guard.
	l := binary.BigEndian.Uint32(hdr)
	if l > MaxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", l)
	}
	r.Discard(4)
	n := int(l)
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}
