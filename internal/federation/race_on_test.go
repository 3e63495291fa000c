//go:build race

package federation_test

// raceEnabled reports that the tests run under the race detector.
const raceEnabled = true
