//go:build race

package mcmp

// raceEnabled reports that the race detector is instrumenting this build;
// the family sweep shrinks its largest k under it.
const raceEnabled = true
