//go:build !race

package harness

// raceDetectorEnabled reports whether the binary was built with -race. The
// allocation budgets skip under the race detector: its instrumentation
// allocates on its own.
const raceDetectorEnabled = false
