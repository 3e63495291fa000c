// Package binenc is the repo's one binary encoding: append-style
// encoders that extend a caller-owned []byte and a sticky-error decoder
// that reads values back out of a payload without copying (text, when
// asked, out of one copy of the payload or of its first bytes). The
// primitives are deliberately dumb — uvarints, length-prefixed strings,
// fixed 8-byte little-endian floats. The v3 wire bodies
// (internal/transport, the root package's typed record section) and the
// durable stores' WAL and snapshot records (internal/storage,
// internal/rgma, internal/mds) are all composed from them, so a count
// read from a peer or from a damaged file is bounded the same way
// everywhere.
package binenc

import (
	"encoding/binary"
	"errors"
	"math"
	"unsafe"
)

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

// AppendBytes appends b length-prefixed, as AppendString appends it.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// PutUvarintAt writes v in unsigned varint encoding over the one-byte
// placeholder b[at] and returns b, for a length known only once the
// bytes after it are written. When v needs more than one byte (v >= 128)
// it moves b[at+1:] right to make room.
func PutUvarintAt(b []byte, at int, v uint64) []byte {
	if v < 0x80 {
		b[at] = byte(v)
		return b
	}
	var enc [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(enc[:], v)
	b = append(b, enc[1:n]...)
	copy(b[at+n:], b[at+1:len(b)-n+1])
	copy(b[at:], enc[:n])
	return b
}

// ErrMalformed is the one decode failure: the payload ended early, a
// varint was invalid, or a count could not fit in what was left. A
// shared instance keeps the error path off the decode hot path's
// allocation budget; the transport maps it to its bad_request code.
var ErrMalformed = errors.New("binenc: truncated or malformed payload")

// Dec decodes values out of one payload. Errors are sticky: the first
// short read or oversized count marks the decoder bad, every later read
// returns zero values, and Err reports the failure once at the end — so
// decode sequences read straight-line without per-field error checks.
//
// Bytes and Rest return views into the payload, valid only until its
// buffer is reused. String never aliases the payload: it returns a
// substring of the decoder's text when the string lies inside it and a
// fresh copy otherwise. A NewDec decoder has no text, so it copies each
// string; a NewDecText decoder's text is one copy of the whole payload —
// one allocation for all the text of a frame, which every string read
// from it then keeps alive together; a NewDecPrefix decoder's text is
// one the caller already holds for the payload's first bytes, and a
// NewDecString decoder's is the payload itself, so the strings inside
// it cost nothing.
type Dec struct {
	buf  []byte
	text string // equal to buf[:len(text)]; the strings it covers are cut from it
	off  int
	bad  bool
}

// NewDec returns a decoder positioned at the start of payload.
func NewDec(payload []byte) Dec { return Dec{buf: payload} }

// NewDecText returns a decoder over payload whose String results are
// substrings of a single copy of it. Use it for bodies that are mostly
// text and decode into values that outlive the frame.
func NewDecText(payload []byte) Dec { return Dec{buf: payload, text: string(payload)} }

// NewDecPrefix returns a decoder over payload whose String results are
// substrings of text when they lie within its first len(text) bytes, and
// copies past them. text must equal string(payload[:len(text)]).
func NewDecPrefix(payload []byte, text string) Dec { return Dec{buf: payload, text: text} }

// NewDecString returns a decoder over text whose String results are
// substrings of text: a payload kept as a string decodes with no copy.
// The views its Bytes and Rest return are text's own memory and must
// not be written.
func NewDecString(text string) Dec {
	return Dec{buf: unsafe.Slice(unsafe.StringData(text), len(text)), text: text}
}

// Err reports whether any read so far ran off the payload.
func (d *Dec) Err() error {
	if d.bad {
		return ErrMalformed
	}
	return nil
}

// Len returns the number of undecoded bytes remaining.
func (d *Dec) Len() int { return len(d.buf) - d.off }

// Done reports whether the whole payload was consumed cleanly — the
// check that a stored record carried exactly the fields its type
// implies.
func (d *Dec) Done() bool { return !d.bad && d.off == len(d.buf) }

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

// Bytes reads a length-prefixed byte section as a view into the payload.
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
// text when the string lies inside it, a fresh copy out of the payload
// otherwise.
func (d *Dec) String() string {
	b := d.Bytes()
	if d.off <= len(d.text) {
		return d.text[d.off-len(b) : d.off]
	}
	return string(b)
}

// Count validates an element count read from the payload: it returns n
// as an int when n elements of at least minBytes encoded bytes each can
// still fit in the undecoded rest, and marks the decoder bad (returning
// 0) otherwise. Decoders size their slices and maps and bound their
// loops by the result, so neither a peer nor a corrupt file can make
// them allocate or iterate more than a small multiple of the bytes
// actually present.
func (d *Dec) Count(n uint64, minBytes int) int {
	if d.bad || n > uint64(d.Len()/minBytes) {
		d.bad = true
		return 0
	}
	return int(n)
}
