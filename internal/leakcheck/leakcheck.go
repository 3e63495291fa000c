// Package leakcheck is the goroutine-leak assertion of the transport,
// subscribe, chaos and federation test suites: their close and chaos
// tests prove "no hang", this proves "nothing left running". It uses the
// standard library only.
package leakcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// settle is how long goroutines started during a test get to wind down
// after it: a Close returns before the goroutines it unblocked have
// exited, so the comparison has to wait for them. It is only ever waited
// out in full by a test that is about to fail. (A variable so that this
// package's own test of the failing case need not take that long.)
var settle = 5 * time.Second

// Check snapshots the goroutines alive now and registers a cleanup that
// fails t, with their stacks, if goroutines started since are still
// alive once the test has finished. Call it first in a test: cleanups
// run last-registered-first, so everything the test registers afterwards
// (server Close, client Close) has run by the time the comparison starts.
func Check(t testing.TB) {
	t.Helper()
	before := goroutines()
	t.Cleanup(func() {
		deadline := time.Now().Add(settle)
		for {
			var leaked []string
			for id, stack := range goroutines() {
				if _, ok := before[id]; !ok {
					leaked = append(leaked, stack)
				}
			}
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("%d goroutine(s) still running after the test:\n\n%s",
					len(leaked), strings.Join(leaked, "\n\n"))
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// goroutines returns the stack of every live goroutine, keyed by its
// "goroutine N" header (ids are never reused within a process).
func goroutines() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for _, stack := range strings.Split(string(buf), "\n\n") {
		id, _, _ := strings.Cut(stack, " [")
		out[id] = stack
	}
	return out
}
