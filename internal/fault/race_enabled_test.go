//go:build race

package fault

// raceEnabled reports that the race detector is instrumenting this build;
// the oracle test shrinks its largest k under it.
const raceEnabled = true
