// Package experiments is gated by simdet; every nondeterminism source
// below must be flagged.
package experiments

import (
	"math/rand" // want `math/rand is a process-global nondeterminism source`
	"sort"
	"time"
)

// Wall reads the wall clock.
func Wall() time.Time {
	return time.Now() // want `time.Now is nondeterministic`
}

// Since is fine: only time.Now is the nondeterministic entry point.
func Since(t time.Time) time.Duration {
	return t.Sub(t)
}

// Draw uses the global generator (the import is the flagged site).
func Draw() int {
	return rand.Intn(6)
}

// Spawn launches a raw goroutine outside the kernel.
func Spawn(f func()) {
	go f() // want `goroutine launched outside the sim kernel`
}

// SpawnSanctioned is the documented escape hatch.
func SpawnSanctioned(f func()) {
	//gridmon:nolint simdet bounded worker pool, results re-ordered by key
	go f()
}

// Keys leaks map order into a slice.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `map iteration order`
	}
	return out
}

// SortedKeys collects then sorts: allowed.
func SortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Sum ranges a map without ordered output: allowed.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Local appends to a slice born inside the loop body: allowed.
func Local(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		grown := []int{}
		grown = append(grown, vs...)
		n += len(grown)
	}
	return n
}
