package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
)

// This file is the binary codec layer under the v3 wire format (see
// v3.go): append-style encoders that extend a caller-owned []byte, a
// sticky-error decoder that reads values back out of a frame without
// copying (text, when asked, out of one copy of the whole frame), and a
// pool of frame buffers so steady-state framing does not allocate. The
// primitives are deliberately dumb — uvarints, length-prefixed strings,
// fixed 8-byte floats — the typed record section for ResultSet/Event
// payloads is composed from them by the root package, which owns those
// types.

// AppendUvarint appends v in unsigned varint encoding.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendVarint appends v in zig-zag varint encoding.
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendFloat64 appends f as 8 fixed little-endian bytes (IEEE 754 bits).
func AppendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendString appends s length-prefixed (uvarint length, then bytes).
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends p length-prefixed, like AppendString.
func AppendBytes(b []byte, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// errMalformed is the one decode failure: the frame ended early or a
// varint was invalid. A shared instance keeps the error path off the
// decode hot path's allocation budget.
var errMalformed = &Error{Code: CodeBadRequest, Message: "transport: truncated or malformed binary frame"}

// Dec decodes values out of one frame payload. Errors are sticky: the
// first short read or oversized count marks the decoder bad, every later
// read returns zero values, and Err reports the failure once at the end —
// so decode sequences read straight-line without per-field error checks.
//
// Bytes and Rest return views into the payload, valid only until the
// frame buffer is reused. String never aliases the payload: a NewDec
// decoder copies each string out of it, a NewDecText decoder copies the
// whole payload once and returns substrings of that copy — one allocation
// for all the text of a frame, which every string read from it then
// keeps alive together.
type Dec struct {
	buf  []byte
	text string // NewDecText: string(buf), the copy String slices
	off  int
	bad  bool
}

// NewDec returns a decoder positioned at the start of payload.
func NewDec(payload []byte) Dec { return Dec{buf: payload} }

// NewDecText returns a decoder over payload whose String results are
// substrings of a single copy of it. Use it for bodies that are mostly
// text and decode into values that outlive the frame.
func NewDecText(payload []byte) Dec { return Dec{buf: payload, text: string(payload)} }

// Err reports whether any read so far ran off the frame.
func (d *Dec) Err() error {
	if d.bad {
		return errMalformed
	}
	return nil
}

// Len returns the number of undecoded bytes remaining.
func (d *Dec) Len() int { return len(d.buf) - d.off }

// Rest returns the remaining undecoded bytes as a view and consumes
// them.
func (d *Dec) Rest() []byte {
	b := d.buf[d.off:]
	d.off = len(d.buf)
	return b
}

// Byte reads one byte.
func (d *Dec) Byte() byte {
	if d.bad || d.off >= len(d.buf) {
		d.bad = true
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.bad {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zig-zag varint.
func (d *Dec) Varint() int64 {
	if d.bad {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.off += n
	return v
}

// Float64 reads 8 fixed little-endian bytes as a float64.
func (d *Dec) Float64() float64 {
	if d.bad || d.off+8 > len(d.buf) {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return math.Float64frombits(v)
}

// Bytes reads a length-prefixed byte section as a view into the frame.
func (d *Dec) Bytes() []byte {
	n := d.Uvarint()
	if d.bad || n > uint64(len(d.buf)-d.off) {
		d.bad = true
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// String reads a length-prefixed string: a substring of the decoder's
// text copy when it has one, a fresh copy out of the frame otherwise.
func (d *Dec) String() string {
	b := d.Bytes()
	if d.text != "" {
		return d.text[d.off-len(b) : d.off]
	}
	return string(b)
}

// Count validates an element count read off the wire: it returns n as an
// int when n elements of at least minBytes encoded bytes each can still
// fit in the undecoded rest of the frame, and marks the decoder bad
// (returning 0) otherwise. Decoders size their slices and maps by the
// result, so a peer cannot make them allocate more than a small multiple
// of the bytes it actually sent.
func (d *Dec) Count(n uint64, minBytes int) int {
	if d.bad || n > uint64(d.Len()/minBytes) {
		d.bad = true
		return 0
	}
	return int(n)
}

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
// valid until the next call.
func readFrameInto(r io.Reader, buf *[]byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	// Bounds-check before any int conversion: on 32-bit platforms a
	// length above MaxInt32 would wrap negative and sail past the guard.
	if binary.BigEndian.Uint32(hdr[:]) > MaxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", binary.BigEndian.Uint32(hdr[:]))
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}
