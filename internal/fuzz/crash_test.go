package fuzz

import (
	"testing"

	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
	"chipmunk/internal/fs/nova"
	"chipmunk/internal/persist"
	"chipmunk/internal/vfs"
)

// mountPanicFS panics when a crash state is mounted; the record pass (Mkfs
// and the workload ops) behaves normally.
type mountPanicFS struct{ vfs.FS }

func (f mountPanicFS) Mount() error { panic("hostile crash state") }

// mkfsPanicFS panics on the coordinator path (Mkfs), escaping the engine's
// per-check sandbox entirely.
type mkfsPanicFS struct{ vfs.FS }

func (f mkfsPanicFS) Mkfs() error { panic("coordinator panic") }

// TestFuzzerCountsQuarantinedStates: a candidate whose crash states are
// quarantined advances the campaign's quarantine counter, which fleet rounds
// report as QuarantinedChecks.
func TestFuzzerCountsQuarantinedStates(t *testing.T) {
	cfg := core.Config{
		NewFS: func(pm *persist.PM) vfs.FS {
			return mountPanicFS{nova.New(pm, bugs.None())}
		},
		Cap: 2,
	}
	f := New(cfg, 1, nil)
	if _, _, err := f.Step(); err != nil {
		t.Fatal(err)
	}
	if len(f.Census.Quarantined)+f.Census.SuppressedQuarantine == 0 {
		t.Fatal("hostile guest quarantined nothing")
	}
}

// TestFuzzerPanicReachesCaller: a panic that escapes the engine is not
// swallowed by the fuzzer; it reaches the caller, where a fleet worker's
// lease.RunUnit turns it into a failed round.
func TestFuzzerPanicReachesCaller(t *testing.T) {
	cfg := core.Config{
		NewFS: func(pm *persist.PM) vfs.FS {
			return mkfsPanicFS{nova.New(pm, bugs.None())}
		},
		Cap: 2,
	}
	f := New(cfg, 1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("coordinator panic was swallowed")
		}
	}()
	f.Step()
}
