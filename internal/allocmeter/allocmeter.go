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

// tries is how many readings Bytes takes at most.
const tries = 3

// Bytes reports the bytes one call of f allocates and whether they are
// within budget, for the fuzz targets that bound a decoder's allocation
// by its input. A reading over budget may be another goroutine's, so it
// reads again, up to tries readings, stops at the first within budget
// and reports the least. setup, when not nil, runs before each call
// outside the reading: it builds the state the call consumes.
func Bytes(budget uint64, setup, f func()) (bytes uint64, ok bool) {
	var before, after runtime.MemStats
	bytes = math.MaxUint64
	for try := 0; try < tries && bytes > budget; try++ {
		if setup != nil {
			setup()
		}
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return bytes, bytes <= budget
}
