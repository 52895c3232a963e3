package core

import (
	"context"
	"strings"
	"testing"

	"chipmunk/internal/bugs"
	"chipmunk/internal/fs/extdax"
	"chipmunk/internal/fs/nova"
	"chipmunk/internal/fs/pmfs"
	"chipmunk/internal/fs/splitfs"
	"chipmunk/internal/fs/winefs"
	"chipmunk/internal/persist"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

// factories for each system at a given bug set.
func novaFS(set bugs.Set) func(pm *persist.PM) vfs.FS {
	return func(pm *persist.PM) vfs.FS { return nova.New(pm, set) }
}

func fortisFS(set bugs.Set) func(pm *persist.PM) vfs.FS {
	return func(pm *persist.PM) vfs.FS { return nova.New(pm, set, nova.WithFortis()) }
}

func pmfsFS(set bugs.Set) func(pm *persist.PM) vfs.FS {
	return func(pm *persist.PM) vfs.FS { return pmfs.New(pm, set) }
}

func winefsFS(set bugs.Set) func(pm *persist.PM) vfs.FS {
	return func(pm *persist.PM) vfs.FS { return winefs.New(pm, set) }
}

func splitfsFS(set bugs.Set) func(pm *persist.PM) vfs.FS {
	return func(pm *persist.PM) vfs.FS { return splitfs.New(pm, set) }
}

func extdaxFS() func(pm *persist.PM) vfs.FS {
	return func(pm *persist.PM) vfs.FS { return extdax.New(pm, extdax.Ext4) }
}

// a small but representative workload exercising most syscalls.
func mixedWorkload() workload.Workload {
	return workload.Workload{Name: "mixed", Ops: []workload.Op{
		{Kind: workload.OpCreat, Path: "/a", FDSlot: -1},
		{Kind: workload.OpPwrite, Path: "/a", FDSlot: -1, Off: 0, Size: 512, Seed: 1},
		{Kind: workload.OpMkdir, Path: "/d"},
		{Kind: workload.OpLink, Path: "/a", Path2: "/d/l"},
		{Kind: workload.OpRename, Path: "/a", Path2: "/b"},
		{Kind: workload.OpTruncate, Path: "/b", Size: 100},
		{Kind: workload.OpUnlink, Path: "/d/l"},
		{Kind: workload.OpRmdir, Path: "/d"},
	}}
}

func renameWorkload() workload.Workload {
	return workload.Workload{Name: "rename", Ops: []workload.Op{
		{Kind: workload.OpCreat, Path: "/old", FDSlot: -1},
		{Kind: workload.OpPwrite, Path: "/old", FDSlot: -1, Off: 0, Size: 64, Seed: 7},
		{Kind: workload.OpRename, Path: "/old", Path2: "/new"},
	}}
}

// heavyWorkload is a seq-2-shaped data workload whose fences carry large
// in-flight sets under exhaustive (cap=0) enumeration.
func heavyWorkload() workload.Workload {
	return workload.Workload{Name: "heavy", Ops: []workload.Op{
		{Kind: workload.OpCreat, Path: "/f0", FDSlot: -1},
		{Kind: workload.OpPwrite, Path: "/f0", FDSlot: -1, Off: 0, Size: 16384, Seed: 1},
		{Kind: workload.OpRename, Path: "/f0", Path2: "/f1"},
	}}
}

func mustRun(t *testing.T, cfg Config, w workload.Workload) *Result {
	t.Helper()
	res, err := RunContext(context.Background(), cfg, w)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestRunContextCancelDuringWalk: a cancelled context aborts the run and
// returns the context error.
func TestRunContextCancelDuringWalk(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, Config{NewFS: novaFS(bugs.None())}, heavyWorkload())
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestFixedSystemsClean: the engine must report NO violations for any fixed
// file system on the mixed workload — every crash state of a correct system
// recovers legally. This is the no-false-positive guarantee everything else
// rests on.
func TestFixedSystemsClean(t *testing.T) {
	cases := []struct {
		name string
		fs   func(pm *persist.PM) vfs.FS
	}{
		{"nova", novaFS(bugs.None())},
		{"nova-fortis", fortisFS(bugs.None())},
		{"pmfs", pmfsFS(bugs.None())},
		{"winefs", winefsFS(bugs.None())},
		{"splitfs", splitfsFS(bugs.None())},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := mustRun(t, Config{NewFS: c.fs}, mixedWorkload())
			for _, v := range res.Violations {
				t.Errorf("false positive: %s", v)
			}
			if res.StatesChecked == 0 {
				t.Error("no crash states checked")
			}
		})
	}
}

// TestFixedWeakSystemClean: ext4-DAX with fsync-gated crash points.
func TestFixedWeakSystemClean(t *testing.T) {
	w := workload.Workload{Name: "weak", Ops: []workload.Op{
		{Kind: workload.OpCreat, Path: "/a", FDSlot: 0},
		{Kind: workload.OpPwrite, FDSlot: 0, Off: 0, Size: 256, Seed: 3},
		{Kind: workload.OpFsync, FDSlot: 0},
		{Kind: workload.OpMkdir, Path: "/d"},
		{Kind: workload.OpSync},
		{Kind: workload.OpClose, FDSlot: 0},
	}}
	res := mustRun(t, Config{NewFS: extdaxFS()}, w)
	for _, v := range res.Violations {
		t.Errorf("false positive: %s", v)
	}
	if res.StatesChecked == 0 {
		t.Error("no crash states checked (fsync points missing)")
	}
}

// TestBug4RenameDisappears reproduces Figure 2: NOVA's same-directory
// rename invalidates the old dentry in place before the journal commits; a
// crash state with only that write loses the file entirely.
func TestBug4RenameDisappears(t *testing.T) {
	res := mustRun(t, Config{NewFS: novaFS(bugs.Of(bugs.NovaRenameInPlaceDelete))}, renameWorkload())
	if !res.Buggy() {
		t.Fatal("bug 4 not detected")
	}
	found := false
	for _, v := range res.Violations {
		if v.Kind == VAtomicity && v.Phase == PhaseMid && strings.Contains(v.SysName, "rename") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("expected mid-syscall rename atomicity violation, got: %v", res.Violations[0])
	}
	// Fixed NOVA passes the same workload.
	clean := mustRun(t, Config{NewFS: novaFS(bugs.None())}, renameWorkload())
	if clean.Buggy() {
		t.Fatalf("fixed NOVA flagged: %s", clean.Violations[0])
	}
}

// TestBug14NotSynchronous: the missing data fence shows up as a
// post-syscall synchrony violation.
func TestBug14NotSynchronous(t *testing.T) {
	w := workload.Workload{Ops: []workload.Op{
		{Kind: workload.OpCreat, Path: "/a", FDSlot: -1},
		{Kind: workload.OpPwrite, Path: "/a", FDSlot: -1, Off: 0, Size: 512, Seed: 2},
	}}
	res := mustRun(t, Config{NewFS: pmfsFS(bugs.Of(bugs.WriteNotSync))}, w)
	found := false
	for _, v := range res.Violations {
		if v.Kind == VSynchrony && v.Phase == PhasePost {
			found = true
		}
	}
	if !found {
		t.Fatalf("bug 14 not detected as synchrony violation: %v", res.Violations)
	}
}

// TestTornWriteAllowedOnPmfs: PMFS data writes are not atomic; mid-write
// crash states with partial data must NOT be flagged.
func TestTornWriteAllowedOnPmfs(t *testing.T) {
	w := workload.Workload{Ops: []workload.Op{
		{Kind: workload.OpCreat, Path: "/a", FDSlot: -1},
		{Kind: workload.OpPwrite, Path: "/a", FDSlot: -1, Off: 0, Size: 6000, Seed: 4},
		{Kind: workload.OpPwrite, Path: "/a", FDSlot: -1, Off: 100, Size: 4096, Seed: 5},
	}}
	res := mustRun(t, Config{NewFS: pmfsFS(bugs.None())}, w)
	for _, v := range res.Violations {
		t.Errorf("torn-write false positive: %s", v)
	}
}

// TestCapLimitsStates: a cap of 2 checks far fewer states but still finds
// bug 4 (Observation 7).
func TestCapLimitsStates(t *testing.T) {
	// A multi-page write puts several data pages in flight at one fence, so
	// exhaustive enumeration visibly outgrows the capped one.
	w := renameWorkload()
	w.Ops = append([]workload.Op{
		{Kind: workload.OpCreat, Path: "/big", FDSlot: -1},
		{Kind: workload.OpPwrite, Path: "/big", FDSlot: -1, Off: 0, Size: 16384, Seed: 9},
	}, w.Ops...)
	exhaustive := mustRun(t, Config{NewFS: novaFS(bugs.Of(bugs.NovaRenameInPlaceDelete))}, w)
	capped := mustRun(t, Config{NewFS: novaFS(bugs.Of(bugs.NovaRenameInPlaceDelete)), Cap: 2}, w)
	if capped.StatesChecked >= exhaustive.StatesChecked {
		t.Fatalf("cap did not reduce states: %d vs %d", capped.StatesChecked, exhaustive.StatesChecked)
	}
	if !capped.Buggy() {
		t.Fatal("cap=2 missed bug 4")
	}
}

// TestInFlightStatsPopulated: the Observation 7 measurements come out of
// the engine.
func TestInFlightStatsPopulated(t *testing.T) {
	res := mustRun(t, Config{NewFS: novaFS(bugs.None())}, mixedWorkload())
	if res.MaxInFlight == 0 || res.Fences == 0 {
		t.Fatalf("stats empty: %+v", res)
	}
	total := 0
	for _, c := range res.InFlightCounts {
		total += c
	}
	if total != res.Fences {
		t.Fatalf("histogram total %d != fences %d", total, res.Fences)
	}
}

// TestPerStoreTracing: the instruction-level ablation records store entries.
func TestPerStoreTracing(t *testing.T) {
	res := mustRun(t, Config{NewFS: novaFS(bugs.None()), TraceStores: true}, renameWorkload())
	if res.StoreEntries == 0 {
		t.Fatal("per-store tracing recorded nothing")
	}
}

// TestOpBehaviorDivergence: a live divergence (not crash-related) is
// reported as VOpBehavior. Bug 2 makes a created file unreadable only after
// recovery, so instead force divergence with a workload whose op fails on
// the target: write beyond PMFS's max file size appears as ENOSPC and is
// excluded; use nothing else — so craft via nova fallocate invalid length.
func TestOpBehaviorDivergenceSkipsENOSPC(t *testing.T) {
	w := workload.Workload{Ops: []workload.Op{
		{Kind: workload.OpCreat, Path: "/a", FDSlot: 0},
		{Kind: workload.OpPwrite, FDSlot: 0, Off: pmfs.MaxFileSize, Size: 8, Seed: 1},
		{Kind: workload.OpClose, FDSlot: 0},
	}}
	res := mustRun(t, Config{NewFS: pmfsFS(bugs.None())}, w)
	for _, v := range res.Violations {
		if v.Kind == VOpBehavior {
			t.Fatalf("ENOSPC divergence should be tolerated: %s", v)
		}
	}
}

// TestTriageClusters: duplicate reports collapse into clusters.
func TestTriageClusters(t *testing.T) {
	res := mustRun(t, Config{NewFS: novaFS(bugs.Of(bugs.NovaRenameOldSurvives))}, workload.Workload{
		Ops: []workload.Op{
			{Kind: workload.OpCreat, Path: "/x", FDSlot: -1},
			{Kind: workload.OpMkdir, Path: "/d"},
			{Kind: workload.OpRename, Path: "/x", Path2: "/d/y"},
		},
	})
	if !res.Buggy() {
		t.Fatal("bug 5 not detected")
	}
	clusters := Triage(res.Violations)
	if len(clusters) == 0 {
		t.Fatal("no clusters")
	}
	if len(clusters) >= len(res.Violations) && len(res.Violations) > 1 {
		t.Fatalf("triage did not deduplicate: %d reports, %d clusters", len(res.Violations), len(clusters))
	}
}

// TestViolationStringRendering sanity-checks report formatting.
func TestViolationStringRendering(t *testing.T) {
	v := Violation{
		FS: "nova", Kind: VAtomicity, Phase: PhaseMid, SysName: "rename(/a, /b)",
		Workload: renameWorkload(), Subset: []int{3}, Detail: "both names missing",
	}
	s := v.String()
	for _, want := range []string{"nova", "atomicity", "rename", "both names missing"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

// TestSplitfsCompactionUnderChecker: a small device forces the kernel
// journal to compact during relinks; every crash state (including those
// inside the compaction) must still recover legally under the strong
// checker.
func TestSplitfsCompactionUnderChecker(t *testing.T) {
	var ops []workload.Op
	ops = append(ops, workload.Op{Kind: workload.OpCreat, Path: "/a", FDSlot: 0})
	for i := 0; i < 6; i++ {
		ops = append(ops,
			workload.Op{Kind: workload.OpPwrite, FDSlot: 0, Off: 0, Size: 4096, Seed: uint32(i + 1)},
			workload.Op{Kind: workload.OpFsync, FDSlot: 0},
		)
	}
	ops = append(ops, workload.Op{Kind: workload.OpClose, FDSlot: 0})
	res := mustRun(t, Config{
		NewFS:   splitfsFS(bugs.None()),
		DevSize: 256 << 10,
		Cap:     2,
	}, workload.Workload{Name: "compaction", Ops: ops})
	for _, v := range res.Violations {
		t.Errorf("false positive during compaction: %s", v)
	}
}

// TestTornWriteThroughHardLinkAllowed is the regression test for a checker
// false positive the exhaustive seq-2 sweep caught: a torn append on a
// non-atomic-write system is visible under EVERY hard link of the inode,
// and the alias paths must be granted the same old/new byte-mix allowance
// as the written path.
func TestTornWriteThroughHardLinkAllowed(t *testing.T) {
	w := workload.Workload{Name: "link-then-write", Ops: []workload.Op{
		{Kind: workload.OpCreat, Path: "/f0", FDSlot: -1},
		{Kind: workload.OpWrite, Path: "/f0", FDSlot: -1, Size: 4096, Seed: 1},
		{Kind: workload.OpLink, Path: "/f0", Path2: "/l0"},
		{Kind: workload.OpWrite, Path: "/f0", FDSlot: -1, Size: 4096, Seed: 2},
	}}
	res := mustRun(t, Config{NewFS: pmfsFS(bugs.None()), Cap: 2}, w)
	for _, v := range res.Violations {
		t.Errorf("hard-link torn-write false positive: %s", v)
	}
	// WineFS relaxed mode has the same non-atomic writes.
	resW := mustRun(t, Config{NewFS: func(pm *persist.PM) vfs.FS {
		return winefs.New(pm, bugs.None(), winefs.WithMode(winefs.Relaxed))
	}, Cap: 2}, w)
	for _, v := range resW.Violations {
		t.Errorf("winefs-relaxed false positive: %s", v)
	}
}
