package binenc

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"unsafe"
)

// TestCodecRoundTrip: every primitive survives append → decode, in
// sequence, with the decoder consuming exactly what was written.
func TestCodecRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 0)
	b = AppendUvarint(b, 1<<60)
	b = AppendVarint(b, -42)
	b = AppendVarint(b, math.MaxInt64)
	b = AppendFloat64(b, 3.5)
	b = AppendFloat64(b, math.Inf(-1))
	b = AppendString(b, "")
	b = AppendString(b, "grid-α")
	b = AppendString(b, "\x00\x01\x02")
	b = append(b, 0x7f)

	d := NewDec(b)
	if v := d.Uvarint(); v != 0 {
		t.Fatalf("uvarint = %d", v)
	}
	if v := d.Uvarint(); v != 1<<60 {
		t.Fatalf("uvarint = %d", v)
	}
	if v := d.Varint(); v != -42 {
		t.Fatalf("varint = %d", v)
	}
	if v := d.Varint(); v != math.MaxInt64 {
		t.Fatalf("varint = %d", v)
	}
	if v := d.Float64(); v != 3.5 {
		t.Fatalf("float = %v", v)
	}
	if v := d.Float64(); !math.IsInf(v, -1) {
		t.Fatalf("float = %v", v)
	}
	if v := d.String(); v != "" {
		t.Fatalf("string = %q", v)
	}
	if v := d.String(); v != "grid-α" {
		t.Fatalf("string = %q", v)
	}
	if v := d.Bytes(); len(v) != 3 || v[2] != 2 {
		t.Fatalf("bytes = %v", v)
	}
	if v := d.Byte(); v != 0x7f {
		t.Fatalf("byte = %v", v)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 || !d.Done() {
		t.Fatalf("%d bytes left over, Done = %v", d.Len(), d.Done())
	}
}

// TestCodecDone: Done is true only for a payload consumed exactly — a
// record with bytes left over, or one that ended early, is not the record
// its type tag promised.
func TestCodecDone(t *testing.T) {
	rec := AppendFloat64([]byte{0x03}, 1.5)
	for name, tc := range map[string]struct {
		payload []byte
		done    bool
	}{
		"exact":    {rec, true},
		"trailing": {append(append([]byte(nil), rec...), 0), false},
		"short":    {rec[:len(rec)-1], false},
	} {
		d := NewDec(tc.payload)
		d.Byte()
		d.Float64()
		if d.Done() != tc.done {
			t.Errorf("%s: Done = %v, err %v, %d bytes left", name, d.Done(), d.Err(), d.Len())
		}
	}
}

// TestCodecTruncation: reading past the end sets the sticky error and
// every later read stays zero-valued — no panics, no garbage.
func TestCodecTruncation(t *testing.T) {
	cases := map[string][]byte{
		"empty":            {},
		"cut varint":       {0x80},
		"cut float":        {1, 2, 3},
		"string past end":  AppendUvarint(nil, 100),
		"bytes past end":   append(AppendUvarint(nil, 5), 1, 2),
		"huge string size": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	}
	for name, payload := range cases {
		d := NewDec(payload)
		switch name {
		case "cut float":
			d.Float64()
		case "cut varint":
			d.Uvarint()
		case "bytes past end":
			d.Bytes()
		default:
			_ = d.String() // vet: String() results must be used
		}
		if !errors.Is(d.Err(), ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, d.Err())
		}
		// Sticky: subsequent reads are inert.
		if v := d.Uvarint(); v != 0 {
			t.Errorf("%s: read after error = %d", name, v)
		}
	}
}

// TestCodecText: a NewDecText decoder reads every string of a frame out
// of one copy of it — one allocation however many strings — the strings
// do not alias the frame buffer, and the numeric readers and Bytes behave
// as they do on a NewDec decoder.
func TestCodecText(t *testing.T) {
	var b []byte
	b = AppendString(b, "key")
	b = AppendUvarint(b, 7)
	b = AppendString(b, "")
	b = AppendFloat64(b, 2.5)
	b = AppendString(b, "value-α")
	b = AppendString(b, "\x09")
	var got [3]string
	allocs := testing.AllocsPerRun(100, func() {
		d := NewDecText(b)
		got[0] = d.String()
		d.Uvarint()
		got[1] = d.String()
		d.Float64()
		got[2] = d.String()
	})
	if allocs != 1 {
		t.Errorf("text decode of 3 strings: %.1f allocs, want 1", allocs)
	}
	d := NewDecText(b)
	s0 := d.String()
	n := d.Uvarint()
	s1 := d.String()
	f := d.Float64()
	s2 := d.String()
	raw := d.Bytes()
	if err := d.Err(); err != nil || d.Len() != 0 {
		t.Fatalf("err = %v, %d bytes left", err, d.Len())
	}
	for i := range b {
		b[i] = 0xff // the frame buffer is reused; nothing decoded may change
	}
	if s0 != "key" || n != 7 || s1 != "" || f != 2.5 || s2 != "value-α" || len(raw) != 1 {
		t.Fatalf("decoded %q %d %q %v %q %v", s0, n, s1, f, s2, raw)
	}
	// Truncation is the same sticky error.
	d = NewDecText(AppendUvarint(nil, 100))
	if s := d.String(); s != "" || !errors.Is(d.Err(), ErrMalformed) {
		t.Fatalf("string past end = %q, err %v", s, d.Err())
	}
}

// TestCodecPrefix: a NewDecPrefix decoder cuts the strings that lie
// inside its text out of that text, allocating nothing for them, and
// copies a string that ends past it, one straddling the boundary too.
func TestCodecPrefix(t *testing.T) {
	var b []byte
	b = AppendString(b, "head")
	b = AppendString(b, "")
	b = AppendString(b, "edge")
	b = AppendString(b, "tail")
	cut := len(AppendString(AppendString(nil, "head"), "")) + 3 // inside "edge"
	text := string(b[:cut])
	var got [4]string
	allocs := testing.AllocsPerRun(100, func() {
		d := NewDecPrefix(b, text)
		got[0] = d.String()
		got[1] = d.String()
	})
	if allocs != 0 {
		t.Errorf("2 strings inside the text: %.1f allocs, want 0", allocs)
	}
	d := NewDecPrefix(b, text)
	for i := range got {
		got[i] = d.String()
	}
	if err := d.Err(); err != nil || d.Len() != 0 {
		t.Fatalf("err = %v, %d bytes left", err, d.Len())
	}
	if got != [4]string{"head", "", "edge", "tail"} {
		t.Fatalf("decoded %q", got)
	}
	if unsafe.StringData(got[0]) != unsafe.StringData(text[1:]) {
		t.Error("a string inside the text is not cut from it")
	}
	inText := func(s string) bool {
		p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(text)))
		return p >= lo && p < lo+uintptr(len(text))
	}
	if inText(got[2]) || inText(got[3]) {
		t.Error("a string past the text's end is cut from it")
	}
	for i := range b {
		b[i] = 0xff // the frame buffer is reused; nothing decoded may change
	}
	if got != [4]string{"head", "", "edge", "tail"} {
		t.Fatalf("after the buffer changed: %q", got)
	}
}

// TestCodecString: a NewDecString decoder reads a payload kept as a
// string, cutting every string out of it and allocating nothing.
func TestCodecString(t *testing.T) {
	b := AppendString(nil, "key")
	b = AppendUvarint(b, 7)
	b = AppendString(b, "value-α")
	text := string(b)
	var got [2]string
	var n uint64
	allocs := testing.AllocsPerRun(100, func() {
		d := NewDecString(text)
		got[0] = d.String()
		n = d.Uvarint()
		got[1] = d.String()
		if !d.Done() {
			t.Fatal("not done")
		}
	})
	if allocs != 0 {
		t.Errorf("2 strings out of a string payload: %.1f allocs, want 0", allocs)
	}
	if got != [2]string{"key", "value-α"} || n != 7 {
		t.Fatalf("decoded %q %d", got, n)
	}
	if unsafe.StringData(got[0]) != unsafe.StringData(text[1:]) {
		t.Error("a string is not cut from the payload")
	}
	d := NewDecString(text[:len(text)-1])
	_ = d.String()
	d.Uvarint()
	if s := d.String(); s != "" || !errors.Is(d.Err(), ErrMalformed) {
		t.Fatalf("truncated: err %v", d.Err())
	}
}

// TestCodecCount: a count is accepted only when that many minimum-size
// elements fit in what is left of the frame; anything larger is the
// sticky malformed error, never a value a decoder would size a slice by.
func TestCodecCount(t *testing.T) {
	rest := make([]byte, 10)
	cases := []struct {
		n    uint64
		min  int
		want int
		ok   bool
	}{
		{0, 1, 0, true},
		{10, 1, 10, true},
		{11, 1, 0, false},
		{5, 2, 5, true},
		{6, 2, 0, false},
		{2, 4, 2, true},
		{3, 4, 0, false},
		{1 << 30, 1, 0, false},
		{1 << 62, 1, 0, false},
		{math.MaxUint64, 2, 0, false},
	}
	for _, c := range cases {
		d := NewDec(rest)
		got := d.Count(c.n, c.min)
		if got != c.want || (d.Err() == nil) != c.ok {
			t.Errorf("Count(%d, %d) over 10 bytes = %d, err %v", c.n, c.min, got, d.Err())
		}
	}
	// Sticky: a decoder already bad accepts nothing.
	d := NewDec(nil)
	d.Byte()
	if d.Count(0, 1) != 0 || d.Err() == nil {
		t.Error("Count on a bad decoder")
	}
}

// TestCodecPutUvarintAt: a value written over a one-byte placeholder
// reads as AppendUvarint's bytes between what came before it and what
// came after, with the placeholder last or followed by bytes to move, in
// a buffer with room to spare or at full capacity.
func TestCodecPutUvarintAt(t *testing.T) {
	for _, v := range []uint64{0, 0x7f, 0x80, 0x3fff, 0x4000, 1 << 21, math.MaxUint64} {
		for _, tail := range []string{"", "tail", strings.Repeat("t", 300)} {
			for _, spare := range []int{0, 16} {
				b := make([]byte, 0, len("head")+1+len(tail)+spare)
				b = append(append(append(b, "head"...), 0), tail...)
				got := PutUvarintAt(b, len("head"), v)
				want := append(AppendUvarint([]byte("head"), v), tail...)
				if !bytes.Equal(got, want) {
					t.Errorf("%#x before %d bytes, %d spare: got % x, want % x", v, len(tail), spare, got, want)
				}
			}
		}
	}
}

// FuzzPutUvarintAt: any value written over a placeholder between any two
// byte strings gives prefix + AppendUvarint(v) + suffix.
func FuzzPutUvarintAt(f *testing.F) {
	f.Add([]byte("head"), uint64(0x80), []byte("tail"), uint8(0))
	f.Add([]byte{}, uint64(0x7f), []byte{}, uint8(3))
	f.Add([]byte("h"), uint64(1<<21), bytes.Repeat([]byte{1}, 200), uint8(1))
	f.Add([]byte("h"), uint64(math.MaxUint64), []byte("t"), uint8(9))
	f.Fuzz(func(t *testing.T, prefix []byte, v uint64, suffix []byte, spare uint8) {
		b := make([]byte, 0, len(prefix)+1+len(suffix)+int(spare))
		b = append(append(append(b, prefix...), 0), suffix...)
		got := PutUvarintAt(b, len(prefix), v)
		want := append(AppendUvarint(append([]byte{}, prefix...), v), suffix...)
		if !bytes.Equal(got, want) {
			t.Fatalf("got % x, want % x", got, want)
		}
	})
}
