//go:build !race

package main

// raceEnabled reports that the race detector is instrumenting this build;
// the golden test reruns a smaller -maxk under it.
const raceEnabled = false
