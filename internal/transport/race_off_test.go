//go:build !race

package transport

// raceEnabled reports that the tests run under the race detector.
const raceEnabled = false
