package transport

import (
	"bufio"
	"bytes"
	"context"
	"testing"

	"repro/internal/binenc"
)

// BenchmarkV3CallFrame: one grid.query-sized request through the
// framing, written and re-parsed exactly the way MuxClient.call and the
// server read loop do — header append, 4-byte length prefix, read back
// into the per-connection reuse buffer, header parse. Steady state
// allocates nothing.
func BenchmarkV3CallFrame(b *testing.B) {
	// A binary body the size of a realistic grid.query request.
	body := binenc.AppendString(nil, "MDS")
	body = binenc.AppendString(body, "Aggregate Information Server")
	body = binenc.AppendString(body, "")
	body = binenc.AppendString(body, "(objectclass=MdsCpu)")
	body = binenc.AppendUvarint(body, 0)
	ctx := context.Background()
	var wire bytes.Buffer
	var frame, readBuf []byte
	r := bytes.NewReader(nil)
	br := bufio.NewReader(r)
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
		br.Reset(r)
		payload, err := readFrameInto(br, &readBuf)
		if err != nil {
			b.Fatal(err)
		}
		d := binenc.NewDec(payload)
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
