package core

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chipmunk/internal/bugs"
	"chipmunk/internal/fs/nova"
	"chipmunk/internal/persist"
	"chipmunk/internal/pmem"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

// sandboxWorkload is deliberately tiny: hostile-guest tests pay a timeout
// (and leak one goroutine) per crash state, so fewer states is better.
func sandboxWorkload() workload.Workload {
	return workload.Workload{Name: "sandbox-tiny", Ops: []workload.Op{
		{Kind: workload.OpCreat, Path: "/a", FDSlot: -1},
	}}
}

// panicMountFS panics on every Mount — the in-process analogue of a crash
// state taking the guest kernel down. Mkfs and the workload ops (the record
// pass) delegate to the real system underneath. mounts, when set, counts the
// Mount calls.
type panicMountFS struct {
	vfs.FS
	mounts *atomic.Int64
}

func (f panicMountFS) Mount() error {
	if f.mounts != nil {
		f.mounts.Add(1)
	}
	panic("injected mount panic")
}

func panicNovaFS(set bugs.Set) func(pm *persist.PM) vfs.FS {
	return func(pm *persist.PM) vfs.FS { return panicMountFS{FS: nova.New(pm, set)} }
}

// hangReadDirFS mounts fine but hangs forever in vfs.Capture (ReadDir) — a
// recovery hang only the watchdog deadline can classify.
type hangReadDirFS struct{ vfs.FS }

func (f hangReadDirFS) ReadDir(path string) ([]vfs.DirEnt, error) { select {} }

func hangNovaFS(set bugs.Set) func(pm *persist.PM) vfs.FS {
	return func(pm *persist.PM) vfs.FS { return hangReadDirFS{nova.New(pm, set)} }
}

// flakyMountFS panics on the first N Mounts across the whole run, then
// behaves: a guest that would pass a second attempt at the state it first
// panicked on. mounts counts every Mount call.
type flakyMountFS struct {
	vfs.FS
	remaining *int32
	mounts    *atomic.Int64
}

func (f flakyMountFS) Mount() error {
	f.mounts.Add(1)
	if atomic.AddInt32(f.remaining, -1) >= 0 {
		panic("transient mount panic")
	}
	return f.FS.Mount()
}

// TestSandboxContainsMountPanic: a guest that panics on every Mount must
// not take the engine down. The census completes (same state count as the
// healthy system), every state is classified VPanic, and the quarantine
// ledger records each one — never silent — after exactly one mount.
func TestSandboxContainsMountPanic(t *testing.T) {
	w := sandboxWorkload()
	healthy := mustRun(t, Config{NewFS: novaFS(bugs.None())}, w)
	if healthy.StatesChecked == 0 {
		t.Fatal("healthy run checked no states; test workload too small")
	}
	var mounts atomic.Int64
	res := mustRun(t, Config{NewFS: func(pm *persist.PM) vfs.FS {
		return panicMountFS{nova.New(pm, bugs.None()), &mounts}
	}}, w)

	if n := mounts.Load(); n != int64(res.StatesChecked) {
		t.Errorf("%d mounts for %d checked states, want one each", n, res.StatesChecked)
	}
	if res.StatesChecked != healthy.StatesChecked {
		t.Errorf("census incomplete: %d states checked, healthy run checked %d",
			res.StatesChecked, healthy.StatesChecked)
	}
	if len(res.Violations)+res.SuppressedViolations != res.StatesChecked {
		t.Errorf("%d violations + %d suppressed != %d states checked",
			len(res.Violations), res.SuppressedViolations, res.StatesChecked)
	}
	for i, v := range res.Violations {
		if v.Kind != VPanic {
			t.Fatalf("violation %d: kind %v, want VPanic", i, v.Kind)
		}
		if !strings.Contains(v.Detail, "injected mount panic") {
			t.Fatalf("violation %d detail %q lacks the panic value", i, v.Detail)
		}
	}
	if len(res.Quarantined)+res.SuppressedQuarantine != res.StatesChecked {
		t.Errorf("%d quarantined + %d suppressed != %d states checked",
			len(res.Quarantined), res.SuppressedQuarantine, res.StatesChecked)
	}
	for i, q := range res.Quarantined {
		if q.Kind != VPanic {
			t.Fatalf("quarantine %d: kind %v, want VPanic", i, q.Kind)
		}
		if q.Stack == "" {
			t.Errorf("quarantine %d: no captured stack", i)
		}
		if q.Workload != w.Name {
			t.Errorf("quarantine %d: workload %q, want %q", i, q.Workload, w.Name)
		}
	}
}

// TestSandboxContainsCaptureHang: a guest that hangs in Capture is cut off
// by the per-check deadline and classified VTimeout; the census still
// completes. (Each timed-out state abandons its goroutine by design.)
func TestSandboxContainsCaptureHang(t *testing.T) {
	w := sandboxWorkload()
	healthy := mustRun(t, Config{NewFS: novaFS(bugs.None())}, w)
	res := mustRun(t, Config{
		NewFS:        hangNovaFS(bugs.None()),
		CheckTimeout: 40 * time.Millisecond,
	}, w)

	if res.StatesChecked != healthy.StatesChecked {
		t.Errorf("census incomplete: %d states checked, healthy run checked %d",
			res.StatesChecked, healthy.StatesChecked)
	}
	if len(res.Violations) == 0 || len(res.Quarantined) == 0 {
		t.Fatalf("hanging guest produced %d violations, %d quarantined; want both > 0",
			len(res.Violations), len(res.Quarantined))
	}
	for i, v := range res.Violations {
		if v.Kind != VTimeout {
			t.Fatalf("violation %d: kind %v, want VTimeout", i, v.Kind)
		}
		if !strings.Contains(v.Detail, "deadline") {
			t.Fatalf("violation %d detail %q lacks the deadline", i, v.Detail)
		}
	}
	for i, q := range res.Quarantined {
		if q.Kind != VTimeout {
			t.Fatalf("quarantine %d: kind %v, want VTimeout", i, q.Kind)
		}
	}
}

// TestSandboxQuarantinesPanicOnce: each crash state gets one attempt. A
// guest that panics only on the first state's first mount would pass a
// second one, yet that state is quarantined and classified VPanic, and no
// state is mounted twice.
func TestSandboxQuarantinesPanicOnce(t *testing.T) {
	w := sandboxWorkload()
	var remaining int32 = 1
	var mounts atomic.Int64
	res := mustRun(t, Config{NewFS: func(pm *persist.PM) vfs.FS {
		return flakyMountFS{nova.New(pm, bugs.None()), &remaining, &mounts}
	}}, w)
	if res.StatesChecked < 2 {
		t.Fatalf("%d states checked; the test needs a state after the panicking one", res.StatesChecked)
	}
	if n := mounts.Load(); n != int64(res.StatesChecked) {
		t.Errorf("%d mounts for %d checked states, want one each", n, res.StatesChecked)
	}
	if len(res.Quarantined) != 1 || res.Quarantined[0].Kind != VPanic {
		t.Fatalf("quarantine ledger %v, want one VPanic entry", res.Quarantined)
	}
	if len(res.Violations) != 1 || res.Violations[0].Kind != VPanic {
		t.Errorf("violations %v, want the one VPanic", res.Violations)
	}
}

// directRecheck records every crash state a run mounts — the image before
// the guest touched it, the mount error or the contract's finding — so each
// can be checked again outside the engine.
type directRecheck struct {
	mu     sync.Mutex
	env    RunEnv
	states []mountedState
}

type mountedState struct {
	pages    map[int64][]byte // the image's non-zero 4 KiB pages
	size     int64
	mountErr string
	checked  bool
	cctx     CheckContext
	finding  *Finding
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
	*oracleChecker
	dr *directRecheck
}

// recordedObservation carries the index of the state it was read from.
type recordedObservation struct {
	Observation
	idx int
}

func (c recordingChecker) Observe(fs vfs.FS, in *Interner) Observation {
	return recordedObservation{c.oracleChecker.Observe(fs, in), fs.(*recordingFS).idx}
}

func (c recordingChecker) Judge(o Observation, cctx *CheckContext) *Finding {
	r := o.(recordedObservation)
	f := c.oracleChecker.Judge(r.Observation, cctx)
	c.dr.mu.Lock()
	st := &c.dr.states[r.idx]
	st.checked, st.cctx, st.finding = true, *cctx, f
	st.cctx.Subset = slices.Clone(cctx.Subset)
	c.dr.mu.Unlock()
	return f
}

func (c recordingChecker) Probe(fs vfs.FS, o Observation) *Finding {
	r := o.(recordedObservation)
	f := c.oracleChecker.Probe(fs, r.Observation)
	c.dr.mu.Lock()
	c.dr.states[r.idx].finding = f
	c.dr.mu.Unlock()
	return f
}

// checkDirect applies c to a mounted state outside the engine: observe,
// judge, then probe after a passing judgement.
func checkDirect(c Checker, fs vfs.FS, cctx *CheckContext) *Finding {
	o := c.Observe(fs, nil)
	if f := c.Judge(o, cctx); f != nil {
		return f
	}
	return c.Probe(fs, o)
}

// config routes cfg's crash-state mounts and checks through the recorder.
func (dr *directRecheck) config(cfg Config) Config {
	newFS := cfg.NewFS
	cfg.NewFS = func(pm *persist.PM) vfs.FS { return &recordingFS{FS: newFS(pm), pm: pm, dr: dr} }
	cfg.Checker = func(env RunEnv) Checker {
		dr.env = env
		return recordingChecker{NewOracleChecker(env).(*oracleChecker), dr}
	}
	return cfg
}

// verify mounts every recorded state on a fresh device, on the test's own
// goroutine with no sandbox around it, and requires the mount outcome and
// a fresh oracle's finding to match what the sandboxed run recorded —
// and res, the sandboxed run's Result, to report one crash-state violation
// per failed mount or finding.
func (dr *directRecheck) verify(t *testing.T, name string, newFS func(*persist.PM) vfs.FS, res *Result) {
	t.Helper()
	env := dr.env
	env.Obs = nil
	oracle := NewOracleChecker(env)
	failed, reported := 0, res.SuppressedViolations
	for _, v := range res.Violations {
		if v.Kind != VOpBehavior {
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

// TestSandboxDifferentialAgainstDirect: with faults off, every crash state
// the sandboxed checker classified must classify identically when mounted
// and checked directly, outside the engine, on clean and violating runs
// alike; and the recording itself must change nothing (the all-seven-systems
// version lives in internal/harness).
func TestSandboxDifferentialAgainstDirect(t *testing.T) {
	for _, set := range []bugs.Set{bugs.None(), bugs.AllSet()} {
		for _, w := range []workload.Workload{mixedWorkload(), renameWorkload()} {
			plain := mustRun(t, Config{NewFS: novaFS(set)}, w)
			dr := &directRecheck{}
			sand := mustRun(t, dr.config(Config{NewFS: novaFS(set)}), w)
			sameResult(t, w.Name, plain, sand)
			if len(sand.Quarantined) != 0 {
				t.Errorf("%s: healthy guest quarantined %d states", w.Name, len(sand.Quarantined))
			}
			if len(dr.states) == 0 {
				t.Fatalf("%s: no crash state recorded", w.Name)
			}
			dr.verify(t, w.Name, novaFS(set), sand)
		}
	}
}

// TestExhaustiveLimitOverride: lowering Config.ExhaustiveLimit must
// truncate more fences (visibly, in TruncatedFences) and check fewer
// states than the defaults.
func TestExhaustiveLimitOverride(t *testing.T) {
	// A 32 KiB pwrite leaves eight writes in flight at one fence: more than
	// DefaultSafetyCap reaches.
	w := heavyWorkload()
	w.Ops[1].Size = 32768
	base := mustRun(t, Config{NewFS: novaFS(bugs.None())}, w)
	low := mustRun(t, Config{NewFS: novaFS(bugs.None()), ExhaustiveLimit: 2}, w)
	if low.TruncatedFences <= base.TruncatedFences {
		t.Errorf("TruncatedFences %d with limit 2, want > %d (default limit)",
			low.TruncatedFences, base.TruncatedFences)
	}
	if low.StatesChecked >= base.StatesChecked {
		t.Errorf("StatesChecked %d with limit 2, want < %d (default limit)",
			low.StatesChecked, base.StatesChecked)
	}
}

// TestFoldBuildsNoEventWithoutTracer: with journaling off, folding a
// violation and a quarantine into a pre-sized ledger allocates nothing, so
// neither journal event (a violation's trace prefix, a quarantine's state
// key) is built only for a nil tracer to drop.
func TestFoldBuildsNoEventWithoutTracer(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	w := sandboxWorkload()
	ck := &checker{w: w, res: &Result{
		Violations:  make([]Violation, 0, maxViolationsPerRun),
		Quarantined: make([]Quarantine, 0, maxViolationsPerRun),
	}}
	ctx := CheckContext{Fence: 2, Sys: len(w.Ops) - 1, Rank: 1}
	v := &Violation{Kind: VAtomicity, Workload: w, Syscall: ctx.Sys, Detail: "lost\nwrite"}
	q := &Quarantine{Workload: w.Name, Fence: 2, Sys: ctx.Sys, StateKey: 0xfeed, Kind: VPanic, Detail: "boom"}
	out := checkOutcome{v: v, q: q, ctx: ctx}
	if allocs := testing.AllocsPerRun(100, func() { ck.fold(out) }); allocs != 0 {
		t.Fatalf("fold without a tracer: %.1f allocs per call, want 0", allocs)
	}
	if ck.res.StatesChecked != 101 || len(ck.res.Violations) == 0 || len(ck.res.Quarantined) == 0 {
		t.Fatalf("fold did not record: %+v", ck.res)
	}
}
