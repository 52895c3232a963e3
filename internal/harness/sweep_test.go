package harness

import (
	"context"
	"testing"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
)

// TestSeq2SweepFixedSystemsClean is the exhaustive no-false-positive sweep:
// every fixed strong system runs the ENTIRE ACE seq-2 suite (3136
// workloads) and must produce zero violations across every crash state.
// This is the long-running counterpart of TestFixedSystemsClean and the
// reproduction's strongest soundness statement; the paper's equivalent is
// that Chipmunk reports no bugs on patched systems.
//
// Runtime is minutes per system; skipped in -short mode (the regular suite
// covers seq-1 samples).
func TestSeq2SweepFixedSystemsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("seq-2 sweep takes minutes; run without -short")
	}
	suite := ace.Seq2()
	for _, sys := range Systems() {
		if sys.Weak {
			continue
		}
		sys := sys
		t.Run(sys.Name, func(t *testing.T) {
			t.Parallel()
			cfg := Options{Bugs: bugs.None(), Cap: 2}.ConfigFor(sys)
			c, viol, err := Run(context.Background(), cfg, suite, WithWorkers(0)) // all cores
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range viol {
				if i > 5 {
					t.Fatalf("... and %d more", len(viol)-5)
				}
				t.Errorf("false positive: %s", v)
			}
			t.Logf("%s: %d workloads, %d crash states, %v",
				sys.Name, c.Workloads, c.StatesChecked, c.Elapsed)
		})
	}
}

// TestSeq1SweepAllSystemsClean is the §4.3 no-false-positive table: every
// fixed system runs its full seq-1 suite at cap 2 — PM-mode seq-1 on the
// five strong systems, DAX-mode seq-1 on the two weak ones — and must
// produce zero violations.
func TestSeq1SweepAllSystemsClean(t *testing.T) {
	for _, sys := range Systems() {
		checkSeq1Clean(t, sys)
	}
}

// TestSeq1SweepWeakSystemsClean: the full DAX-mode seq-1 suite against both
// weak systems.
func TestSeq1SweepWeakSystemsClean(t *testing.T) {
	for _, name := range []string{"ext4-dax", "xfs-dax"} {
		sys, err := SystemByName(name)
		if err != nil {
			t.Fatal(err)
		}
		checkSeq1Clean(t, sys)
	}
}

// checkSeq1Clean runs sys's full seq-1 suite (seq-1-dax on a weak system)
// at cap 2 and fails on any violation or on a run that skipped workloads or
// checked no crash state.
func checkSeq1Clean(t *testing.T, sys System) {
	t.Helper()
	suite := ace.Seq1()
	if sys.Weak {
		suite = ace.Seq1Dax()
	}
	cfg := Options{Bugs: bugs.None(), Cap: 2}.ConfigFor(sys)
	c, viol, err := Run(context.Background(), cfg, suite)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range viol {
		t.Errorf("%s false positive: %s", sys.Name, v)
	}
	if c.Workloads != len(suite) || c.StatesChecked == 0 {
		t.Errorf("%s: %d/%d workloads, %d crash states", sys.Name, c.Workloads, len(suite), c.StatesChecked)
	}
	t.Logf("%-12s %3d workloads, %6d crash states (%d deduped)", sys.Name, c.Workloads, c.StatesChecked, c.StatesDeduped)
}
