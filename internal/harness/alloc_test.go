package harness

import (
	"context"
	"io"
	"runtime"
	"slices"
	"testing"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/obs"
)

// TestObservedRunAllocBudget pins what an observed suite run allocates per
// workload: nova seq2[:64] serially, with a metrics collector, a tracer on
// a journal that discards what it is written, and a progress callback, the
// way `chipmunk -stats -journal` runs a suite. It is the median of five
// runs, each on a fresh memo. Measured on go1.24 linux/amd64: 37,991 bytes
// per workload, budgeted with 3% to spare; a progress snapshot that
// deep-copies the census's obs again, as one did before its counts were
// detached, reads 41,406.
func TestObservedRunAllocBudget(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector instrumentation allocates; the budget is meaningless under -race")
	}
	const measured = 37991
	sys, err := SystemByName("nova")
	if err != nil {
		t.Fatal(err)
	}
	suite := ace.Seq2()[:64]
	run := func() {
		opts := Options{Bugs: bugs.None(), Obs: obs.New(), Tracer: obs.NewTracer(obs.NewJournal(io.Discard), 1, 0)}
		if _, _, err := Run(context.Background(), opts.ConfigFor(sys), suite, WithProgress(func(int, int, Census) {})); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the free list
	var per []uint64
	for r := 0; r < 5; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		per = append(per, (after.TotalAlloc-before.TotalAlloc)/uint64(len(suite)))
	}
	slices.Sort(per)
	if got, budget := per[2], uint64(measured*103/100); got > budget {
		t.Errorf("an observed run allocates %d bytes per workload, budget %d", got, budget)
	}
}
