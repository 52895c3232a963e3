package core

import (
	"testing"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/fs/extdax"
	"chipmunk/internal/fs/nova"
	"chipmunk/internal/fs/pmfs"
	"chipmunk/internal/fs/splitfs"
	"chipmunk/internal/fs/winefs"
	"chipmunk/internal/persist"
	"chipmunk/internal/vfs"
)

// TestVinterFilterReducesStatesKeepsRecoveryBugs: the read-set heuristic
// must cut the crash-state count while still finding bugs whose in-flight
// writes recovery reads (the rename bug's dentry and journal words are all
// consumed by the rebuild scan).
func TestVinterFilterReducesStatesKeepsRecoveryBugs(t *testing.T) {
	w := renameWorkload()
	mk := func(filter bool) *Result {
		res := mustRun(t, Config{
			NewFS: func(pm *persist.PM) vfs.FS {
				return nova.New(pm, bugs.Of(bugs.NovaRenameInPlaceDelete))
			},
			VinterFilter: filter,
		}, w)
		return res
	}
	plain := mk(false)
	filtered := mk(true)
	if !plain.Buggy() || !filtered.Buggy() {
		t.Fatalf("bug 4 detection: plain=%v filtered=%v", plain.Buggy(), filtered.Buggy())
	}
	if filtered.StatesChecked > plain.StatesChecked {
		t.Fatalf("filter increased states: %d > %d", filtered.StatesChecked, plain.StatesChecked)
	}
	t.Logf("states plain=%d filtered=%d (filtered writes: %d)",
		plain.StatesChecked, filtered.StatesChecked, filtered.FilteredWrites)
}

// TestVinterFilterCleanOnFixed: the heuristic must not create false
// positives (fewer states can only hide bugs, not invent them), on any
// fixed system over seq-1. The filtered writes still land in the fence's
// full set and in the base the next fence starts from.
func TestVinterFilterCleanOnFixed(t *testing.T) {
	for _, sys := range []struct {
		name string
		mk   func(pm *persist.PM) vfs.FS
	}{
		{"nova", func(pm *persist.PM) vfs.FS { return nova.New(pm, bugs.None()) }},
		{"nova-fortis", func(pm *persist.PM) vfs.FS { return nova.New(pm, bugs.None(), nova.WithFortis()) }},
		{"pmfs", func(pm *persist.PM) vfs.FS { return pmfs.New(pm, bugs.None()) }},
		{"winefs", func(pm *persist.PM) vfs.FS { return winefs.New(pm, bugs.None()) }},
		{"splitfs", func(pm *persist.PM) vfs.FS { return splitfs.New(pm, bugs.None()) }},
		{"ext4-dax", func(pm *persist.PM) vfs.FS { return extdax.New(pm, extdax.Ext4) }},
		{"xfs-dax", func(pm *persist.PM) vfs.FS { return extdax.New(pm, extdax.XFS) }},
	} {
		t.Run(sys.name, func(t *testing.T) {
			bad := 0
			for _, w := range append(ace.Seq1(), mixedWorkload()) {
				res := mustRun(t, Config{NewFS: sys.mk, VinterFilter: true}, w)
				if bad += len(res.Violations); len(res.Violations) > 0 && bad <= 3 {
					t.Errorf("%s: false positive under filter: %s", w.Name, res.Violations[0])
				}
			}
			if bad > 0 {
				t.Errorf("%d false positives under filter", bad)
			}
		})
	}
}

// TestVinterFilterCountsFilteredWrites: on a data-heavy workload the filter
// actually excludes writes (NOVA recovery reads logs and inodes, not file
// data pages).
func TestVinterFilterCountsFilteredWrites(t *testing.T) {
	w := mixedWorkload()
	res := mustRun(t, Config{
		NewFS: func(pm *persist.PM) vfs.FS {
			return nova.New(pm, bugs.None())
		},
		VinterFilter: true,
	}, w)
	if res.FilteredWrites == 0 {
		t.Fatal("filter excluded nothing on a data workload")
	}
}
