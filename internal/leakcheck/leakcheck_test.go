package leakcheck

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// recorder stands in for the *testing.T of a test under Check: it runs
// the registered cleanups on demand and records the failure instead of
// failing this test.
type recorder struct {
	testing.TB
	cleanups []func()
	failure  string
}

func (r *recorder) Helper()          {}
func (r *recorder) Cleanup(f func()) { r.cleanups = append(r.cleanups, f) }
func (r *recorder) Errorf(format string, args ...interface{}) {
	r.failure = fmt.Sprintf(format, args...)
}

func (r *recorder) finish() {
	for i := len(r.cleanups) - 1; i >= 0; i-- {
		r.cleanups[i]()
	}
}

func TestCheck(t *testing.T) {
	settle = 200 * time.Millisecond
	defer func() { settle = 5 * time.Second }()

	// A goroutine still winding down when the test ends is waited for.
	rec := &recorder{TB: t}
	Check(rec)
	go time.Sleep(50 * time.Millisecond)
	rec.finish()
	if rec.failure != "" {
		t.Errorf("a goroutine that exits within the settling period was reported:\n%s", rec.failure)
	}

	// One that outlives the settling period is reported with its stack.
	rec = &recorder{TB: t}
	Check(rec)
	release := make(chan struct{})
	defer close(release)
	go func() { <-release }()
	rec.finish()
	if !strings.Contains(rec.failure, "1 goroutine(s) still running") || !strings.Contains(rec.failure, "TestCheck") {
		t.Errorf("a leaked goroutine was not reported with its stack:\n%s", rec.failure)
	}
}
