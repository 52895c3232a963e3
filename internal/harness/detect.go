package harness

import (
	"context"
	"fmt"
	"time"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
	"chipmunk/internal/fuzz"
	"chipmunk/internal/obs"
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

// DetectOptions tune a detection run.
type DetectOptions struct {
	// Cap bounds replayed subset sizes (0 = exhaustive).
	Cap int
	// PostOnly restricts crash points to syscall boundaries (Obs 5).
	PostOnly bool
	// Obs receives per-stage metrics from the detection's engine runs
	// (nil = off); Journal receives their run-journal events.
	Obs     *obs.Collector
	Journal *obs.Journal
}

// config builds the engine Config for one detection run.
func (o DetectOptions) config(sys System, set bugs.Set) core.Config {
	cfg := Options{Bugs: set, Cap: o.Cap, Obs: o.Obs, Journal: o.Journal}.ConfigFor(sys)
	cfg.PostOnly = o.PostOnly
	return cfg
}

// DetectWithTargeted checks whether the generic checker flags the bug on
// its minimal reproduction workloads — the fast developer-loop validation.
func DetectWithTargeted(id bugs.ID, opts DetectOptions) (Detection, error) {
	info, ok := bugs.Lookup(id)
	if !ok {
		return Detection{}, fmt.Errorf("unknown bug %d", id)
	}
	sys, err := BugSystem(info)
	if err != nil {
		return Detection{}, err
	}
	cfg := opts.config(sys, bugs.Of(id))
	det := Detection{Bug: info, System: sys.Name}
	start := time.Now()
	for _, w := range TargetedWorkloads(id) {
		res, err := core.RunContext(context.Background(), cfg, w)
		if err != nil {
			return det, fmt.Errorf("bug %d workload %s: %w", id, w.Name, err)
		}
		det.Workloads++
		det.StatesChecked += res.StatesChecked
		if res.Buggy() {
			det.Found = true
			det.Via = w.Name
			det.Kind = res.Violations[0].Kind
			det.Phase = res.Violations[0].Phase
			break
		}
	}
	det.Elapsed = time.Since(start)
	return det, nil
}

// VerifyFixedClean runs the bug's targeted workloads against the FIXED
// system and reports any violation (a checker false positive).
func VerifyFixedClean(id bugs.ID, opts DetectOptions) ([]core.Violation, error) {
	info, ok := bugs.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("unknown bug %d", id)
	}
	sys, err := BugSystem(info)
	if err != nil {
		return nil, err
	}
	cfg := opts.config(sys, bugs.None())
	var out []core.Violation
	for _, w := range TargetedWorkloads(id) {
		res, err := core.RunContext(context.Background(), cfg, w)
		if err != nil {
			return nil, err
		}
		out = append(out, res.Violations...)
	}
	return out, nil
}

// DetectWithACE scans ACE workloads in generation order until the bug is
// found, mirroring how the paper's ACE runs discover bugs. maxWorkloads
// bounds the scan (0 = the full seq-1 + seq-2 + seq-3-metadata corpus).
func DetectWithACE(id bugs.ID, maxWorkloads int, opts DetectOptions) (Detection, error) {
	info, ok := bugs.Lookup(id)
	if !ok {
		return Detection{}, fmt.Errorf("unknown bug %d", id)
	}
	sys, err := BugSystem(info)
	if err != nil {
		return Detection{}, err
	}
	cfg := opts.config(sys, bugs.Of(id))
	det := Detection{Bug: info, System: sys.Name}
	start := time.Now()

	run := func(suite []workload.Workload) (bool, error) {
		for _, w := range suite {
			if maxWorkloads > 0 && det.Workloads >= maxWorkloads {
				return false, nil
			}
			res, err := core.RunContext(context.Background(), cfg, w)
			if err != nil {
				return false, fmt.Errorf("bug %d on %s: %w", id, w.Name, err)
			}
			det.Workloads++
			det.StatesChecked += res.StatesChecked
			if res.Buggy() {
				det.Found = true
				det.Via = w.Name
				det.Kind = res.Violations[0].Kind
				det.Phase = res.Violations[0].Phase
				return true, nil
			}
		}
		return false, nil
	}

	for _, suite := range [][]workload.Workload{ace.Seq1(), ace.Seq2(), ace.Seq3Metadata()} {
		found, err := run(suite)
		if err != nil {
			return det, err
		}
		if found {
			break
		}
		if maxWorkloads > 0 && det.Workloads >= maxWorkloads {
			break
		}
	}
	det.Elapsed = time.Since(start)
	return det, nil
}

// DetectWithFuzzer fuzzes until the bug is found or the exec budget runs
// out, mirroring the paper's Syzkaller runs (cap 2, §4.2).
func DetectWithFuzzer(id bugs.ID, seed int64, maxExecs int) (Detection, error) {
	info, ok := bugs.Lookup(id)
	if !ok {
		return Detection{}, fmt.Errorf("unknown bug %d", id)
	}
	sys, err := BugSystem(info)
	if err != nil {
		return Detection{}, err
	}
	cfg := Options{Bugs: bugs.Of(id), Cap: 2}.ConfigFor(sys)
	det := Detection{Bug: info, System: sys.Name}
	start := time.Now()
	fz := fuzz.New(cfg, seed, nil)
	for i := 0; i < maxExecs; i++ {
		res, w, err := fz.Step()
		if err != nil {
			return det, err
		}
		det.Workloads++
		det.StatesChecked += res.StatesChecked
		if res.Buggy() {
			det.Found = true
			det.Via = w.Name
			det.Kind = res.Violations[0].Kind
			det.Phase = res.Violations[0].Phase
			break
		}
	}
	det.Elapsed = time.Since(start)
	return det, nil
}
