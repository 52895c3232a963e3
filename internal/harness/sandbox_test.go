package harness

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
	"chipmunk/internal/fs/nova"
	"chipmunk/internal/persist"
	"chipmunk/internal/pmem"
	"chipmunk/internal/vfs"
)

// mountPanicFS panics on Mount (crash-state checks only); the record pass
// underneath is the real system.
type mountPanicFS struct{ vfs.FS }

func (f mountPanicFS) Mount() error { panic("hostile crash state") }

// directRecheck records every crash state a run mounts — the image before
// the guest touched it, the mount error or the contract's finding — so each
// can be checked again outside the engine.
type directRecheck struct {
	mu     sync.Mutex
	env    core.RunEnv
	states []mountedState
}

type mountedState struct {
	pages    map[int64][]byte // the image's non-zero 4 KiB pages
	size     int64
	mountErr string
	checked  bool
	cctx     core.CheckContext
	finding  *core.Finding
}

// recordingFS copies the crash image it is handed before the guest mounts it.
type recordingFS struct {
	vfs.FS
	pm  *persist.PM
	dr  *directRecheck
	idx int
}

func (f *recordingFS) Mount() error {
	img := make([]byte, f.pm.Size())
	f.pm.Mem().Peek(0, img)
	st := mountedState{pages: map[int64][]byte{}, size: int64(len(img))}
	for off := 0; off < len(img); off += 4096 {
		if p := img[off : off+4096]; !bytes.Equal(p, make([]byte, 4096)) {
			st.pages[int64(off)] = p
		}
	}
	err := f.FS.Mount()
	if err != nil {
		st.mountErr = err.Error()
	}
	f.dr.mu.Lock()
	f.idx = len(f.dr.states)
	f.dr.states = append(f.dr.states, st)
	f.dr.mu.Unlock()
	return err
}

// recordingChecker is the default oracle contract, recording each verdict
// against the state its recordingFS mounted: the judgement with its
// context, then the probe's finding if the judgement passed.
type recordingChecker struct {
	core.Checker
	dr *directRecheck
}

// recordedObservation carries the index of the state it was read from.
type recordedObservation struct {
	core.Observation
	idx int
}

func (c recordingChecker) Observe(fs vfs.FS, in *core.Interner) core.Observation {
	return recordedObservation{c.Checker.Observe(fs, in), fs.(*recordingFS).idx}
}

func (c recordingChecker) Judge(o core.Observation, cctx *core.CheckContext) *core.Finding {
	r := o.(recordedObservation)
	f := c.Checker.Judge(r.Observation, cctx)
	c.dr.mu.Lock()
	st := &c.dr.states[r.idx]
	st.checked, st.cctx, st.finding = true, *cctx, f
	st.cctx.Subset = slices.Clone(cctx.Subset)
	c.dr.mu.Unlock()
	return f
}

func (c recordingChecker) Probe(fs vfs.FS, o core.Observation) *core.Finding {
	r := o.(recordedObservation)
	f := c.Checker.Probe(fs, r.Observation)
	c.dr.mu.Lock()
	c.dr.states[r.idx].finding = f
	c.dr.mu.Unlock()
	return f
}

// checkDirect applies c to a mounted state outside the engine: observe,
// judge, then probe after a passing judgement.
func checkDirect(c core.Checker, fs vfs.FS, cctx *core.CheckContext) *core.Finding {
	o := c.Observe(fs, nil)
	if f := c.Judge(o, cctx); f != nil {
		return f
	}
	return c.Probe(fs, o)
}

// config routes cfg's crash-state mounts and checks through the recorder.
func (dr *directRecheck) config(cfg core.Config) core.Config {
	cfg.NewFS = crashStateFS(cfg.NewFS, func(fs vfs.FS, pm *persist.PM) vfs.FS {
		return &recordingFS{FS: fs, pm: pm, dr: dr}
	})
	cfg.Checker = func(env core.RunEnv) core.Checker {
		dr.env = env
		return recordingChecker{core.NewOracleChecker(env), dr}
	}
	return cfg
}

// verify mounts every recorded state on a fresh device, on the test's own
// goroutine with no sandbox around it, and requires the mount outcome and
// a fresh oracle's finding to match what the sandboxed run recorded —
// and res, the sandboxed run's Result, to report one crash-state violation
// per failed mount or finding.
func (dr *directRecheck) verify(t *testing.T, name string, newFS func(*persist.PM) vfs.FS, res *core.Result) {
	t.Helper()
	env := dr.env
	env.Obs = nil
	oracle := core.NewOracleChecker(env)
	failed, reported := 0, res.SuppressedViolations
	for _, v := range res.Violations {
		if v.Kind != core.VOpBehavior {
			reported++
		}
	}
	for i, st := range dr.states {
		if st.mountErr != "" || st.finding != nil {
			failed++
		}
		img := make([]byte, st.size)
		for off, p := range st.pages {
			copy(img[off:], p)
		}
		fs := newFS(persist.New(pmem.FromImage(img)))
		var mountErr string
		if err := fs.Mount(); err != nil {
			mountErr = err.Error()
		}
		switch {
		case mountErr != st.mountErr:
			t.Errorf("%s state %d: direct mount error %q, sandboxed %q", name, i, mountErr, st.mountErr)
		case mountErr != "":
		case !st.checked:
			t.Errorf("%s state %d: mounted in the sandbox but never checked", name, i)
		default:
			if f := checkDirect(oracle, fs, &st.cctx); !reflect.DeepEqual(f, st.finding) {
				t.Errorf("%s state %d (%+v): direct finding %+v, sandboxed %+v", name, i, st.cctx, f, st.finding)
			}
		}
	}
	if failed != reported {
		t.Errorf("%s: %d crash states failed their check, the Result reports %d", name, failed, reported)
	}
}

// TestSandboxedCheckerMatchesDirect: with faults off, the sandboxed checker
// must match a direct check across all seven systems, on violating runs
// (published bug sets) and clean ones alike. Each workload must reproduce
// its engine-matrix golden — the inline engine's recorded output — without
// a quarantine or a retry, and every crash state it classified must
// classify identically when mounted and checked outside the engine.
func TestSandboxedCheckerMatchesDirect(t *testing.T) {
	for _, sys := range Systems() {
		t.Run(sys.Name, func(t *testing.T) {
			t.Parallel()
			cfg, suite, want := matrixSlice(t, sys, 8)
			for i, w := range suite {
				dr := &directRecheck{}
				res, err := core.RunContext(context.Background(), dr.config(cfg), w)
				if err != nil {
					t.Fatalf("%s: %v", w.Name, err)
				}
				checkGolden(t, w.Name, res, want[i])
				if len(res.Quarantined) != 0 {
					t.Errorf("%s: well-behaved guest quarantined %d states", w.Name, len(res.Quarantined))
				}
				if len(dr.states) == 0 {
					t.Fatalf("%s: no crash state recorded", w.Name)
				}
				dr.verify(t, w.Name, cfg.NewFS, res)
			}
		})
	}
}

// TestCensusCarriesQuarantine: the suite-level census folds every run's
// quarantine ledger, in suite order regardless of worker count, and counts
// the states as checked — the census completes, nothing is silent.
func TestCensusCarriesQuarantine(t *testing.T) {
	cfg := core.Config{
		NewFS: func(pm *persist.PM) vfs.FS {
			return mountPanicFS{nova.New(pm, bugs.None())}
		},
		Cap: 2,
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
