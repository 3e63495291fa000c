// Package allocmeter measures what a function allocates, for the tests
// that pin allocation counts and byte costs. Other goroutines'
// allocations land in the same process-wide counters, so a reading is
// taken several times and the least counts. It uses the standard
// library only.
package allocmeter

import (
	"math"
	"runtime"
)

// windows is how many readings PerRun takes.
const windows = 5

// PerRun reports what one call of f allocates, after a warming call, as
// the least of a few windows of runs calls each: objects by
// testing.AllocsPerRun's rule, a window's count divided by runs and
// rounded down, so a stray allocation reads as none, and bytes the
// window's total divided by runs. Like AllocsPerRun it runs with
// GOMAXPROCS at 1.
func PerRun(runs int, f func()) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	objects, bytes = math.MaxUint64, math.MaxUint64
	var before, after runtime.MemStats
	for w := 0; w < windows; w++ {
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		objects = min(objects, (after.Mallocs-before.Mallocs)/uint64(runs))
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/uint64(runs))
	}
	return objects, bytes
}
