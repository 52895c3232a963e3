package harness

import (
	"context"
	"reflect"
	"testing"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
)

// TestParallelEngineMatchesSerial: for every system, a suite whose engine
// runs are spread over four suite-level workers must produce the serial run's
// census and violation list exactly: same violations in the same order, same
// state accounting (checked, deduped, truncated), same quarantine ledger.
func TestParallelEngineMatchesSerial(t *testing.T) {
	for _, sys := range Systems() {
		sys := sys
		t.Run(sys.Name, func(t *testing.T) {
			t.Parallel()
			// Published bug sets on the strong systems so the comparison
			// covers violating runs, not just clean ones; weak systems have
			// no injected bugs and use the fsync-gated DAX suite.
			set := bugs.AllSet()
			suite := ace.Seq1()[:12]
			if sys.Weak {
				set = bugs.None()
				suite = ace.Seq1Dax()[:12]
			}
			cfg := Options{Bugs: set, Cap: 0}.ConfigFor(sys)
			serial, sViol, err := Run(context.Background(), cfg, suite)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			par, pViol, err := Run(context.Background(), cfg, suite, WithWorkers(4))
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			serial.Elapsed, par.Elapsed = 0, 0
			if !reflect.DeepEqual(serial, par) {
				t.Errorf("census diverged:\nserial:   %+v\nparallel: %+v", serial, par)
			}
			if len(sViol) != len(pViol) {
				t.Fatalf("%d serial violations != %d parallel", len(sViol), len(pViol))
			}
			for i := range sViol {
				if sViol[i].String() != pViol[i].String() {
					t.Errorf("violation %d differs\nserial:   %s\nparallel: %s", i, sViol[i], pViol[i])
				}
			}
		})
	}
}

func compareResults(t *testing.T, name string, rs, rp *core.Result) {
	t.Helper()
	if rs.StatesChecked != rp.StatesChecked {
		t.Errorf("%s: StatesChecked serial %d != parallel %d", name, rs.StatesChecked, rp.StatesChecked)
	}
	if rs.StatesDeduped != rp.StatesDeduped {
		t.Errorf("%s: StatesDeduped serial %d != parallel %d", name, rs.StatesDeduped, rp.StatesDeduped)
	}
	if rs.Fences != rp.Fences {
		t.Errorf("%s: Fences serial %d != parallel %d", name, rs.Fences, rp.Fences)
	}
	if rs.TruncatedFences != rp.TruncatedFences {
		t.Errorf("%s: TruncatedFences serial %d != parallel %d", name, rs.TruncatedFences, rp.TruncatedFences)
	}
	if rs.MaxInFlight != rp.MaxInFlight {
		t.Errorf("%s: MaxInFlight serial %d != parallel %d", name, rs.MaxInFlight, rp.MaxInFlight)
	}
	if rs.FilteredWrites != rp.FilteredWrites {
		t.Errorf("%s: FilteredWrites serial %d != parallel %d", name, rs.FilteredWrites, rp.FilteredWrites)
	}
	if rs.SuppressedViolations != rp.SuppressedViolations {
		t.Errorf("%s: SuppressedViolations serial %d != parallel %d", name, rs.SuppressedViolations, rp.SuppressedViolations)
	}
	if len(rs.InFlightCounts) != len(rp.InFlightCounts) {
		t.Errorf("%s: InFlightCounts len %d != %d", name, len(rs.InFlightCounts), len(rp.InFlightCounts))
	} else {
		for i := range rs.InFlightCounts {
			if rs.InFlightCounts[i] != rp.InFlightCounts[i] {
				t.Errorf("%s: InFlightCounts[%d] serial %d != parallel %d",
					name, i, rs.InFlightCounts[i], rp.InFlightCounts[i])
			}
		}
	}
	if len(rs.Violations) != len(rp.Violations) {
		t.Errorf("%s: %d serial violations != %d parallel", name, len(rs.Violations), len(rp.Violations))
		return
	}
	for i := range rs.Violations {
		if rs.Violations[i].String() != rp.Violations[i].String() {
			t.Errorf("%s: violation %d differs\nserial:   %s\nparallel: %s",
				name, i, rs.Violations[i], rp.Violations[i])
		}
	}
}

// TestDedupActuallyFires: on an exhaustive (cap=0) run of a journal-heavy
// in-place system, the dedup must skip a nonzero number of identical crash
// states, and the skips must be visible in the Result — never silent.
// (In-place systems like PMFS re-persist bytes that often match the base
// image, so distinct subsets frequently replay to identical images;
// log-structured NOVA dedups far less.)
func TestDedupActuallyFires(t *testing.T) {
	sys, _ := SystemByName("pmfs")
	cfg := Options{Bugs: bugs.None(), Cap: 0}.ConfigFor(sys)
	total := 0
	for _, w := range ace.Seq1()[:20] {
		res, err := core.RunContext(context.Background(), cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		total += res.StatesDeduped
	}
	if total == 0 {
		t.Fatal("StatesDeduped = 0 across 20 pmfs seq-1 workloads; dedup never fired")
	}
}

// TestRunCancelledMidSuite: cancelling the context mid-suite returns
// promptly with ctx.Err() and the partial census accumulated so far.
func TestRunCancelledMidSuite(t *testing.T) {
	sys, _ := SystemByName("nova")
	cfg := Options{Bugs: bugs.None(), Cap: 2}.ConfigFor(sys)
	// A large suite: parallel progress is delivered asynchronously (and
	// coalesced), so the suite must comfortably outlast the delivery of the
	// cancelling update or the whole run can finish before cancel() lands.
	suite := ace.Seq2()[:300]
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		census, _, err := Run(ctx, cfg, suite,
			WithWorkers(workers),
			// >= 3, not == 3: parallel progress updates are coalesced, so
			// a specific intermediate done value may never be observed.
			WithProgress(func(done, total int, c Census) {
				if done >= 3 {
					cancel()
				}
			}))
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if census == nil {
			t.Fatalf("workers=%d: no partial census", workers)
		}
		if census.Workloads < 3 || census.Workloads >= len(suite) {
			t.Errorf("workers=%d: partial census has %d workloads, want [3, %d)",
				workers, census.Workloads, len(suite))
		}
	}
}

// TestRunContextPreCancelled: an already-cancelled context fails fast
// without running the engine.
func TestRunContextPreCancelled(t *testing.T) {
	sys, _ := SystemByName("nova")
	cfg := Options{Bugs: bugs.None()}.ConfigFor(sys)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := core.RunContext(ctx, cfg, ace.Seq1()[0]); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, _, err := Run(ctx, cfg, ace.Seq1()[:5]); err != context.Canceled {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
}

// TestOptionsResolve: the shared flag/Options surface used by all three
// CLI frontends.
func TestOptionsResolve(t *testing.T) {
	opts := Options{FS: "pmfs", Bugs: bugs.AllSet(), Cap: 2}
	sys, cfg, err := opts.Resolve()
	if err != nil || sys.Name != "pmfs" {
		t.Fatalf("Resolve = %v, %v", sys.Name, err)
	}
	if cfg.Cap != 2 || cfg.NewFS == nil {
		t.Fatalf("cfg = %+v", cfg)
	}
	if _, _, err := (Options{FS: "nope"}).Resolve(); err == nil {
		t.Fatal("unknown FS accepted")
	}

	set, err := ParseBugSpec("1, 3")
	if err != nil || len(set.IDs()) != 2 {
		t.Fatalf("ParseBugSpec = %v, %v", set, err)
	}
	if _, err := ParseBugSpec("99"); err == nil {
		t.Fatal("unknown bug id accepted")
	}
	if _, err := ParseBugSpec("x"); err == nil {
		t.Fatal("malformed bug id accepted")
	}
	none, err := ParseBugSpec("none")
	if err != nil || len(none.IDs()) != 0 {
		t.Fatalf("ParseBugSpec(none) = %v, %v", none, err)
	}
}
