//go:build race

package obs_test

// raceEnabled reports whether the race detector is compiled in. Its
// instrumentation inflates every call's entry and exit, which a directly
// measured bracket sees and the trace's post/deliver instants do not, so
// attribution-versus-wall-clock bounds are not checked under it.
const raceEnabled = true
