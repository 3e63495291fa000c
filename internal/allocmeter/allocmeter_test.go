package allocmeter

import "testing"

var sink, stray []byte

// TestPerRun: a function that allocates one 64-byte object a call, and
// one more object every hundredth call, measures one object of 64 bytes
// a call over windows of 100 calls (the stray object rounds away, its
// bytes are under one a call); one that allocates nothing measures none.
func TestPerRun(t *testing.T) {
	calls := 0
	objects, bytes := PerRun(100, func() {
		sink = make([]byte, 64)
		if calls++; calls%100 == 0 {
			stray = make([]byte, 16)
		}
	})
	if objects != 1 || bytes != 64 {
		t.Errorf("one 64-byte object a call measured %d objects and %d bytes", objects, bytes)
	}
	if objects, bytes := PerRun(100, func() {}); objects != 0 || bytes != 0 {
		t.Errorf("no allocation measured %d objects and %d bytes", objects, bytes)
	}
}
