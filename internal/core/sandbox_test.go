package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"chipmunk/internal/bugs"
	"chipmunk/internal/fs/nova"
	"chipmunk/internal/persist"
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
// pass) delegate to the real system underneath.
type panicMountFS struct{ vfs.FS }

func (f panicMountFS) Mount() error { panic("injected mount panic") }

func panicNovaFS(set bugs.Set) func(pm *persist.PM) vfs.FS {
	return func(pm *persist.PM) vfs.FS { return panicMountFS{nova.New(pm, set)} }
}

// hangReadDirFS mounts fine but hangs forever in vfs.Capture (ReadDir) — a
// recovery hang only the watchdog deadline can classify.
type hangReadDirFS struct{ vfs.FS }

func (f hangReadDirFS) ReadDir(path string) ([]vfs.DirEnt, error) { select {} }

func hangNovaFS(set bugs.Set) func(pm *persist.PM) vfs.FS {
	return func(pm *persist.PM) vfs.FS { return hangReadDirFS{nova.New(pm, set)} }
}

// flakyMountFS panics on the first N Mounts across the whole run, then
// behaves — a transient failure the retry loop must absorb.
type flakyMountFS struct {
	vfs.FS
	remaining *int32
}

func (f flakyMountFS) Mount() error {
	if atomic.AddInt32(f.remaining, -1) >= 0 {
		panic("transient mount panic")
	}
	return f.FS.Mount()
}

// TestSandboxContainsMountPanic: a guest that panics on every Mount must
// not take the engine down. The census completes (same state count as the
// healthy system), every state is classified VPanic, and the quarantine
// ledger records each one — never silent.
func TestSandboxContainsMountPanic(t *testing.T) {
	w := sandboxWorkload()
	healthy := mustRun(t, Config{NewFS: novaFS(bugs.None())}, w)
	if healthy.StatesChecked == 0 {
		t.Fatal("healthy run checked no states; test workload too small")
	}
	res := mustRun(t, Config{NewFS: panicNovaFS(bugs.None()), CheckRetries: -1}, w)

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
		if q.Attempts != 1 {
			t.Errorf("quarantine %d: %d attempts with retries disabled, want 1", i, q.Attempts)
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
		CheckRetries: -1,
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

// TestSandboxRetryAbsorbsTransientPanic: a failure that vanishes on retry is
// transient — counted in RetriedChecks, not quarantined, not a violation.
func TestSandboxRetryAbsorbsTransientPanic(t *testing.T) {
	w := sandboxWorkload()
	var remaining int32 = 1
	cfg := Config{NewFS: func(pm *persist.PM) vfs.FS {
		return flakyMountFS{nova.New(pm, bugs.None()), &remaining}
	}}
	res := mustRun(t, cfg, w)
	if res.RetriedChecks != 1 {
		t.Errorf("RetriedChecks = %d, want 1", res.RetriedChecks)
	}
	if len(res.Quarantined) != 0 {
		t.Errorf("transient failure quarantined: %v", res.Quarantined)
	}
	if res.Buggy() {
		t.Errorf("transient failure reported as violation: %v", res.Violations)
	}
}

// TestSandboxDifferentialAgainstDirect: with faults off, the sandboxed
// checker must be byte-identical to the inline pre-sandbox path, on clean
// and on violating runs alike (the all-seven-systems version lives in
// internal/harness).
func TestSandboxDifferentialAgainstDirect(t *testing.T) {
	for _, set := range []bugs.Set{bugs.None(), bugs.AllSet()} {
		for _, w := range []workload.Workload{mixedWorkload(), renameWorkload()} {
			direct := mustRun(t, Config{NewFS: novaFS(set), DisableSandbox: true}, w)
			sand := mustRun(t, Config{NewFS: novaFS(set)}, w)
			if direct.StatesChecked != sand.StatesChecked ||
				direct.StatesDeduped != sand.StatesDeduped ||
				direct.Fences != sand.Fences ||
				direct.TruncatedFences != sand.TruncatedFences {
				t.Errorf("%s: accounting diverged: direct %+v vs sandboxed %+v", w.Name, direct, sand)
			}
			if len(direct.Violations) != len(sand.Violations) {
				t.Fatalf("%s: %d direct violations != %d sandboxed",
					w.Name, len(direct.Violations), len(sand.Violations))
			}
			for i := range direct.Violations {
				if direct.Violations[i].String() != sand.Violations[i].String() {
					t.Errorf("%s: violation %d differs\ndirect:    %s\nsandboxed: %s",
						w.Name, i, direct.Violations[i], sand.Violations[i])
				}
			}
			if len(sand.Quarantined) != 0 || sand.RetriedChecks != 0 {
				t.Errorf("%s: healthy guest quarantined %d states, retried %d",
					w.Name, len(sand.Quarantined), sand.RetriedChecks)
			}
		}
	}
}

// TestExhaustiveLimitOverride: lowering Config.ExhaustiveLimit/SafetyCap
// must truncate more fences (visibly, in TruncatedFences) and check fewer
// states than the defaults.
func TestExhaustiveLimitOverride(t *testing.T) {
	w := heavyWorkload()
	base := mustRun(t, Config{NewFS: novaFS(bugs.None())}, w)
	low := mustRun(t, Config{NewFS: novaFS(bugs.None()), ExhaustiveLimit: 2, SafetyCap: 1}, w)
	if low.TruncatedFences <= base.TruncatedFences {
		t.Errorf("TruncatedFences %d with limit 2, want > %d (default limit)",
			low.TruncatedFences, base.TruncatedFences)
	}
	if low.StatesChecked >= base.StatesChecked {
		t.Errorf("StatesChecked %d with limit 2, want < %d (default limit)",
			low.StatesChecked, base.StatesChecked)
	}
}
