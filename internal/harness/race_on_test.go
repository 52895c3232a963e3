//go:build race

package harness

// raceDetectorEnabled reports whether the binary was built with -race.
const raceDetectorEnabled = true
