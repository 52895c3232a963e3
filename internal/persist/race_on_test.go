//go:build race

package persist

// raceDetectorEnabled reports whether the binary was built with -race.
const raceDetectorEnabled = true
