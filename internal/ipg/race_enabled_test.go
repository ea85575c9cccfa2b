//go:build race

package ipg

// raceEnabled reports that the race detector is instrumenting this build;
// the exhaustive tests shrink their largest k under it.
const raceEnabled = true
