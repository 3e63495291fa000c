package transport

import (
	"bytes"
	"context"
	"testing"
)

// The frame benchmarks measure the read loop's per-frame cost: ReadFrame
// allocates a fresh payload buffer per frame, ReadFrameBuf reuses one
// grow-only buffer the way the server's per-connection loop does. The
// request below is a realistic grid.query frame (~100 bytes of JSON).
// BenchmarkV3CallFrame is the binary generation's counterpart: the same
// logical request as a v3 call frame, written and re-parsed exactly the
// way MuxClient.call and the server read loop do.

func frameBytes(b *testing.B) []byte {
	var buf bytes.Buffer
	req := requestFrame{V: 2, Op: "grid.query",
		Body: []byte(`{"system":"MDS","role":"Aggregate Information Server","expr":"(objectclass=MdsCpu)"}`)}
	if err := WriteFrame(&buf, req); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkReadFrame(b *testing.B) {
	frame := frameBytes(b)
	r := bytes.NewReader(frame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		var req requestFrame
		if err := ReadFrame(r, &req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkV3CallFrame: one grid.query-sized request through the v3
// framing — header append, 4-byte length prefix, read back into the
// per-connection reuse buffer, header parse. Steady state allocates
// nothing; compare with BenchmarkReadFrameBuf for the JSON frame cost.
func BenchmarkV3CallFrame(b *testing.B) {
	// A binary body about the size of the JSON request above.
	body := AppendString(nil, "MDS")
	body = AppendString(body, "Aggregate Information Server")
	body = AppendString(body, "")
	body = AppendString(body, "(objectclass=MdsCpu)")
	body = AppendUvarint(body, 0)
	ctx := context.Background()
	var wire bytes.Buffer
	var frame, readBuf []byte
	r := bytes.NewReader(nil)
	op := "grid.query"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, _ = appendCallHeader(frame[:0], v3Call, uint64(i), op, 0, ctx)
		frame = append(frame, body...)
		wire.Reset()
		var l [4]byte
		l[0] = byte(len(frame) >> 24)
		l[1] = byte(len(frame) >> 16)
		l[2] = byte(len(frame) >> 8)
		l[3] = byte(len(frame))
		wire.Write(l[:])
		wire.Write(frame)
		r.Reset(wire.Bytes())
		payload, err := readFrameInto(r, &readBuf)
		if err != nil {
			b.Fatal(err)
		}
		d := NewDec(payload)
		if kind := d.Byte(); kind != v3Call {
			b.Fatalf("kind = %d", kind)
		}
		_ = d.Uvarint() // id
		if string(d.Bytes()) != op {
			b.Fatal("op")
		}
		_ = d.Byte()    // flags
		_ = d.Uvarint() // timeout
		if d.Err() != nil {
			b.Fatal(d.Err())
		}
	}
}

func BenchmarkReadFrameBuf(b *testing.B) {
	frame := frameBytes(b)
	r := bytes.NewReader(frame)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		var req requestFrame
		if err := ReadFrameBuf(r, &buf, &req); err != nil {
			b.Fatal(err)
		}
	}
}
