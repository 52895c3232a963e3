package fuzz

import (
	"testing"

	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
	"chipmunk/internal/fs/nova"
	"chipmunk/internal/fs/pmfs"
	"chipmunk/internal/fs/splitfs"
	"chipmunk/internal/persist"
	"chipmunk/internal/vfs"
)

func novaCfg(set bugs.Set) core.Config {
	return core.Config{
		NewFS: func(pm *persist.PM) vfs.FS { return nova.New(pm, set) },
		Cap:   2, // the paper's fuzzing cap (§4.2)
	}
}

func TestFuzzerFindsCoverageAndBuildsCorpus(t *testing.T) {
	f := New(novaCfg(bugs.None()), 1, nil)
	if err := f.Run(30); err != nil {
		t.Fatal(err)
	}
	if f.Census.Workloads != 30 {
		t.Fatalf("execs = %d", f.Census.Workloads)
	}
	if f.CoverageSize() == 0 || f.CorpusSize() == 0 {
		t.Fatal("no coverage or corpus growth")
	}
	if f.Census.StatesChecked == 0 {
		t.Fatal("no crash states checked")
	}
}

func TestFuzzerCleanOnFixedNova(t *testing.T) {
	f := New(novaCfg(bugs.None()), 7, nil)
	if err := f.Run(60); err != nil {
		t.Fatal(err)
	}
	for _, v := range f.Violations {
		t.Errorf("false positive on fixed nova: %s", v)
	}
}

// TestFuzzerFindsUnalignedBug: bug 17 (PMFS/WineFS unaligned NT tail) is
// out of ACE's reach but inside the fuzzer's argument space.
func TestFuzzerFindsUnalignedBug(t *testing.T) {
	cfg := core.Config{
		NewFS: func(pm *persist.PM) vfs.FS { return pmfs.New(pm, bugs.Of(bugs.NTTailNotFenced)) },
		Cap:   2,
	}
	f := New(cfg, 3, nil)
	found := false
	for i := 0; i < 300 && !found; i++ {
		res, _, err := f.Step()
		if err != nil {
			t.Fatal(err)
		}
		if res.Buggy() {
			found = true
		}
	}
	if !found {
		t.Fatal("fuzzer did not find the unaligned-write bug in 300 execs")
	}
}

// TestFuzzerFindsTwoFDBug: bug 22 (SplitFS per-FD staging) needs two open
// descriptors on one file.
func TestFuzzerFindsTwoFDBug(t *testing.T) {
	cfg := core.Config{
		NewFS: func(pm *persist.PM) vfs.FS { return splitfs.New(pm, bugs.Of(bugs.SplitfsStagePerFD)) },
		Cap:   2,
	}
	f := New(cfg, 5, nil)
	found := false
	for i := 0; i < 400 && !found; i++ {
		res, _, err := f.Step()
		if err != nil {
			t.Fatal(err)
		}
		if res.Buggy() {
			found = true
		}
	}
	if !found {
		t.Fatal("fuzzer did not find the two-FD staging bug in 400 execs")
	}
}

func TestTriageIntegration(t *testing.T) {
	cfg := novaCfg(bugs.Of(bugs.NovaRenameInPlaceDelete))
	f := New(cfg, 11, nil)
	if err := f.Run(150); err != nil {
		t.Fatal(err)
	}
	if len(f.Violations) == 0 {
		t.Skip("rename bug not hit in this seed's budget (mutation-dependent)")
	}
	clusters := core.Triage(f.Violations)
	if len(clusters) == 0 {
		t.Fatal("violations but no clusters")
	}
	if len(clusters) > len(f.Violations) {
		t.Fatal("more clusters than violations")
	}
}

func TestGenerateAndMutateShapes(t *testing.T) {
	f := New(novaCfg(bugs.None()), 13, nil)
	w := f.generate()
	if len(w.Ops) < 3 {
		t.Fatalf("generated workload too short: %d", len(w.Ops))
	}
	m := f.mutate(w)
	if len(m.Ops) == 0 || len(m.Ops) > 24 {
		t.Fatalf("mutated workload size = %d", len(m.Ops))
	}
}
