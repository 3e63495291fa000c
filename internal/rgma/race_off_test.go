//go:build !race

package rgma

// raceEnabled reports that the tests run under the race detector.
const raceEnabled = false
