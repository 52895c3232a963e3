//go:build race

package inplace_test

// raceDetectorEnabled reports whether the binary was built with -race.
const raceDetectorEnabled = true
