//go:build race

package gridmon

// raceEnabled reports that the tests run under the race detector.
const raceEnabled = true
