package harness

import (
	"context"
	"flag"
	"testing"
	"time"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
	"chipmunk/internal/fs/nova"
	"chipmunk/internal/persist"
	"chipmunk/internal/vfs"
)

// TestSandboxedCheckerMatchesDirect: with faults off, the sandboxed checker
// must be byte-identical to the pre-sandbox inline path across all seven
// systems, on violating runs (published bug sets) and clean ones alike.
func TestSandboxedCheckerMatchesDirect(t *testing.T) {
	for _, sys := range Systems() {
		sys := sys
		t.Run(sys.Name, func(t *testing.T) {
			t.Parallel()
			set := bugs.AllSet()
			suite := ace.Seq1()[:8]
			if sys.Weak {
				set = bugs.None()
				suite = ace.Seq1Dax()[:8]
			}
			direct := Options{Bugs: set, Cap: 2}.ConfigFor(sys)
			direct.DisableSandbox = true
			sandboxed := Options{Bugs: set, Cap: 2}.ConfigFor(sys)
			for _, w := range suite {
				rd, err := core.RunContext(context.Background(), direct, w)
				if err != nil {
					t.Fatalf("%s direct: %v", w.Name, err)
				}
				rs, err := core.RunContext(context.Background(), sandboxed, w)
				if err != nil {
					t.Fatalf("%s sandboxed: %v", w.Name, err)
				}
				compareResults(t, w.Name, rd, rs)
				if len(rs.Quarantined) != 0 || rs.RetriedChecks != 0 {
					t.Errorf("%s: well-behaved guest quarantined %d states, retried %d",
						w.Name, len(rs.Quarantined), rs.RetriedChecks)
				}
			}
		})
	}
}

// mountPanicFS panics on Mount (crash-state checks only); the record pass
// underneath is the real system.
type mountPanicFS struct{ vfs.FS }

func (f mountPanicFS) Mount() error { panic("hostile crash state") }

// TestCensusCarriesQuarantine: the suite-level census folds every run's
// quarantine ledger, in suite order regardless of worker count, and counts
// the states as checked — the census completes, nothing is silent.
func TestCensusCarriesQuarantine(t *testing.T) {
	cfg := core.Config{
		NewFS: func(pm *persist.PM) vfs.FS {
			return mountPanicFS{nova.New(pm, bugs.None())}
		},
		Cap:          2,
		CheckRetries: -1,
	}
	suite := ace.Seq1()[:4]
	serial, _, err := Run(context.Background(), cfg, suite)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Quarantined) == 0 {
		t.Fatal("hostile suite quarantined nothing")
	}
	if serial.StatesChecked == 0 {
		t.Fatal("census did not complete")
	}
	par, _, err := Run(context.Background(), cfg, suite, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Quarantined) != len(serial.Quarantined) {
		t.Fatalf("ledger size: parallel %d != serial %d", len(par.Quarantined), len(serial.Quarantined))
	}
	for i := range serial.Quarantined {
		if par.Quarantined[i].String() != serial.Quarantined[i].String() {
			t.Errorf("ledger entry %d out of suite order under workers\nserial:   %s\nparallel: %s",
				i, serial.Quarantined[i], par.Quarantined[i])
		}
	}
}

// TestBindCLISandboxOptions: -check-timeout and -exhaustive-limit plumb
// from the shared flag surface through Options into the engine Config.
func TestBindCLISandboxOptions(t *testing.T) {
	fl := flag.NewFlagSet("test", flag.ContinueOnError)
	spec := BindCLI(fl)
	if err := fl.Parse([]string{"-check-timeout", "250ms", "-exhaustive-limit", "10"}); err != nil {
		t.Fatal(err)
	}
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.CheckTimeout != 250*time.Millisecond || opts.ExhaustiveLimit != 10 {
		t.Fatalf("opts = %+v", opts)
	}
	sys, cfg, err := opts.Resolve()
	if err != nil || sys.Name != "nova" {
		t.Fatalf("Resolve: %v, %v", sys.Name, err)
	}
	if cfg.CheckTimeout != 250*time.Millisecond || cfg.ExhaustiveLimit != 10 {
		t.Fatalf("cfg = %+v", cfg)
	}

	// Defaults: unparsed flags resolve to the engine defaults.
	fl2 := flag.NewFlagSet("test2", flag.ContinueOnError)
	spec2 := BindCLI(fl2)
	if err := fl2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if spec2.FS != "nova" || spec2.Bugs != "none" || spec2.Cap != 0 {
		t.Fatalf("default flags: -fs %q -bugs %q -cap %d", spec2.FS, spec2.Bugs, spec2.Cap)
	}
	opts2, err := spec2.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts2.CheckTimeout != core.DefaultCheckTimeout || opts2.ExhaustiveLimit != core.DefaultExhaustiveLimit {
		t.Fatalf("default opts = %+v", opts2)
	}
}
