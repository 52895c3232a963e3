//go:build !race

package persist

// raceDetectorEnabled reports whether the binary was built with -race. The
// zero-alloc assertions skip under the race detector: its instrumentation
// allocates on its own, so testing.AllocsPerRun cannot measure the code.
const raceDetectorEnabled = false
