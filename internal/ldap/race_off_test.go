//go:build !race

package ldap

// raceEnabled reports that the tests run under the race detector.
const raceEnabled = false
