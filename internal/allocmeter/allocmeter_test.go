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

// TestBytes: a call within its budget is read once; one over it is read
// three times and fails; what setup allocates before each call is not
// read.
func TestBytes(t *testing.T) {
	setups, calls := 0, 0
	setup := func() { setups++; stray = make([]byte, 1<<20) }
	call := func() { calls++; sink = make([]byte, 64<<10) }
	if n, ok := Bytes(128<<10, setup, call); !ok || n < 64<<10 || n >= 128<<10 || setups != 1 || calls != 1 {
		t.Errorf("within budget: %d bytes, ok %v, after %d setups and %d calls", n, ok, setups, calls)
	}
	setups, calls = 0, 0
	if n, ok := Bytes(1<<10, setup, call); ok || n < 64<<10 || setups != 3 || calls != 3 {
		t.Errorf("over budget: %d bytes, ok %v, after %d setups and %d calls", n, ok, setups, calls)
	}
	if n, ok := Bytes(0, nil, func() {}); !ok || n != 0 {
		t.Errorf("no allocation: %d bytes, ok %v", n, ok)
	}
}
