package harness

import (
	"context"
	"fmt"
	"slices"
	"time"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
	"chipmunk/internal/fuzz"
	"chipmunk/internal/workload"
)

// Detection records how a bug was (or was not) found.
type Detection struct {
	Bug           bugs.Info
	System        string
	Found         bool
	Via           string // which workload exposed it
	Kind          core.ViolationKind
	Phase         core.Phase
	StatesChecked int
	Workloads     int
	Elapsed       time.Duration
}

// detectConfig aims cfg at sys with set injected. Detections rerun the
// same workloads on every (system, bug set), so each traces on its own.
func detectConfig(cfg core.Config, sys System, set bugs.Set) core.Config {
	cfg.NewFS = sys.Factory(set)
	cfg.Tracer = cfg.Tracer.Derive(sys.Name + " bugs " + set.String())
	return cfg
}

// detect scans for bug id on its system and times the scan: scan runs its
// workloads in order, stopping at the first violating one, and returns
// what it ran and the violations it found in order.
func detect(id bugs.ID, cfg core.Config, scan func(cfg core.Config) (*Census, []core.Violation, error)) (Detection, error) {
	info, ok := bugs.Lookup(id)
	if !ok {
		return Detection{}, fmt.Errorf("unknown bug %d", id)
	}
	sys, err := BugSystem(info)
	if err != nil {
		return Detection{}, err
	}
	det := Detection{Bug: info, System: sys.Name}
	start := time.Now()
	c, viol, err := scan(detectConfig(cfg, sys, bugs.Of(id)))
	det.Elapsed = time.Since(start)
	if err != nil {
		return det, fmt.Errorf("bug %d: %w", id, err)
	}
	det.Workloads, det.StatesChecked = c.Workloads, c.StatesChecked
	if len(viol) > 0 {
		v := viol[0]
		det.Found, det.Via, det.Kind, det.Phase = true, v.Workload.Name, v.Kind, v.Phase
	}
	return det, nil
}

// scanSuite is a detect scan of suite through Run, which shares the memo
// and forks of every suite run.
func scanSuite(suite []workload.Workload) func(core.Config) (*Census, []core.Violation, error) {
	return func(cfg core.Config) (*Census, []core.Violation, error) {
		return Run(context.Background(), cfg, suite, WithStopOnFirstBug())
	}
}

// DetectWithTargeted checks whether the generic checker flags the bug on
// its minimal reproduction workloads — the fast developer-loop validation.
// cfg is the engine configuration of every detection here: the bug's
// system and the bug set fill in its NewFS.
func DetectWithTargeted(id bugs.ID, cfg core.Config) (Detection, error) {
	return detect(id, cfg, scanSuite(TargetedWorkloads(id)))
}

// VerifyFixedClean runs the bug's targeted workloads against the FIXED
// system and reports any violation (a checker false positive).
func VerifyFixedClean(id bugs.ID, cfg core.Config) ([]core.Violation, error) {
	info, ok := bugs.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("unknown bug %d", id)
	}
	sys, err := BugSystem(info)
	if err != nil {
		return nil, err
	}
	_, viol, err := Run(context.Background(), detectConfig(cfg, sys, bugs.None()), TargetedWorkloads(id))
	return viol, err
}

// DetectWithACE scans ACE workloads in generation order until the bug is
// found, mirroring how the paper's ACE runs discover bugs. maxWorkloads
// bounds the scan (0 = the full seq-1 + seq-2 + seq-3-metadata corpus).
// seq-1, seq-2 and seq-3-metadata are products over one op alphabet, so
// one Run's memo serves the whole scan.
func DetectWithACE(id bugs.ID, maxWorkloads int, cfg core.Config) (Detection, error) {
	suite := slices.Concat(ace.Seq1(), ace.Seq2(), ace.Seq3Metadata())
	if maxWorkloads > 0 {
		suite = suite[:min(maxWorkloads, len(suite))]
	}
	return detect(id, cfg, scanSuite(suite))
}

// DetectWithFuzzer fuzzes until the bug is found or the exec budget runs
// out, mirroring the paper's Syzkaller runs (cap 2, §4.2, when cfg.Cap is
// 2).
func DetectWithFuzzer(id bugs.ID, seed int64, maxExecs int, cfg core.Config) (Detection, error) {
	return detect(id, cfg, func(cfg core.Config) (*Census, []core.Violation, error) {
		fz := fuzz.New(cfg, seed, nil)
		c := &fz.Census
		for c.Workloads < maxExecs {
			res, _, err := fz.Step()
			if err != nil {
				return nil, nil, err
			}
			if res.Buggy() {
				return c, res.Violations, nil
			}
		}
		return c, nil, nil
	})
}
