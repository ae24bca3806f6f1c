//go:build !race

package obs_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
