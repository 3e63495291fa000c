package storage

import "repro/internal/binenc"

// Encoder builds a record payload from the shared binenc primitives
// (little-endian, uvarint lengths) — the form binenc.Dec reads back. The
// zero value is ready to use.
type Encoder struct {
	buf []byte
}

// Byte appends one byte (record type tags, flags).
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binenc.AppendUvarint(e.buf, v) }

// Float64 appends the IEEE 754 bits of f, little-endian.
func (e *Encoder) Float64(f float64) { e.buf = binenc.AppendFloat64(e.buf, f) }

// String appends a uvarint length followed by the bytes of s.
func (e *Encoder) String(s string) { e.buf = binenc.AppendString(e.buf, s) }

// Bytes returns the encoded payload. The slice aliases the encoder's
// buffer; it is valid until the next append.
func (e *Encoder) Bytes() []byte { return e.buf }
