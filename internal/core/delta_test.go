package core

import (
	"testing"
	"time"

	"chipmunk/internal/bugs"
	"chipmunk/internal/obs"
	"chipmunk/internal/pmem"
	"chipmunk/internal/workload"
)

// compareDeltaResults is the full-Result agreement check the O(diff)
// materialization path must satisfy against the full-copy engine: identical
// violations and quarantine ledgers (String includes kind, state, detail),
// identical state accounting including dedup counts. Anything the delta
// path gets wrong — a stale byte left by an incomplete rollback, a missed
// span, a divergent fault application — shows up here as a differing
// StateKey (and therefore dedup count) or a differing violation.
func compareDeltaResults(t *testing.T, name string, full, delta *Result) {
	t.Helper()
	if full.StatesChecked != delta.StatesChecked {
		t.Errorf("%s: StatesChecked full %d != delta %d", name, full.StatesChecked, delta.StatesChecked)
	}
	if full.StatesDeduped != delta.StatesDeduped {
		t.Errorf("%s: StatesDeduped full %d != delta %d", name, full.StatesDeduped, delta.StatesDeduped)
	}
	if full.Fences != delta.Fences {
		t.Errorf("%s: Fences full %d != delta %d", name, full.Fences, delta.Fences)
	}
	if full.TruncatedFences != delta.TruncatedFences {
		t.Errorf("%s: TruncatedFences full %d != delta %d", name, full.TruncatedFences, delta.TruncatedFences)
	}
	if full.SuppressedViolations != delta.SuppressedViolations {
		t.Errorf("%s: SuppressedViolations full %d != delta %d",
			name, full.SuppressedViolations, delta.SuppressedViolations)
	}
	if full.SuppressedQuarantine != delta.SuppressedQuarantine {
		t.Errorf("%s: SuppressedQuarantine full %d != delta %d",
			name, full.SuppressedQuarantine, delta.SuppressedQuarantine)
	}
	if len(full.Violations) != len(delta.Violations) {
		t.Fatalf("%s: %d full-copy violations != %d delta", name, len(full.Violations), len(delta.Violations))
	}
	for i := range full.Violations {
		if full.Violations[i].String() != delta.Violations[i].String() {
			t.Errorf("%s: violation %d differs\nfull-copy: %s\ndelta:     %s",
				name, i, full.Violations[i], delta.Violations[i])
		}
	}
	if len(full.Quarantined) != len(delta.Quarantined) {
		t.Fatalf("%s: %d full-copy quarantines != %d delta", name, len(full.Quarantined), len(delta.Quarantined))
	}
	for i := range full.Quarantined {
		if full.Quarantined[i].String() != delta.Quarantined[i].String() {
			t.Errorf("%s: quarantine %d differs\nfull-copy: %s\ndelta:     %s",
				name, i, full.Quarantined[i], delta.Quarantined[i])
		}
	}
}

// TestDeltaMaterializeMatchesFullCopy: the tentpole differential. The delta
// path (default) must be byte-identical to the full-copy engine on clean
// and violating runs, exhaustive and capped — the prime/apply/rollback
// lifecycle never leaks one crash state's bytes into the next.
func TestDeltaMaterializeMatchesFullCopy(t *testing.T) {
	for _, set := range []bugs.Set{bugs.None(), bugs.AllSet()} {
		for _, cap := range []int{0, 2} {
			for _, w := range []struct {
				name string
				wl   func() workload.Workload
			}{
				{"mixed", mixedWorkload},
				{"rename", renameWorkload},
			} {
				full := mustRun(t, Config{
					NewFS: novaFS(set), Cap: cap,
					DisableDeltaMaterialize: true,
				}, w.wl())
				delta := mustRun(t, Config{NewFS: novaFS(set), Cap: cap}, w.wl())
				name := w.name
				if len(set.IDs()) > 0 {
					name += "/buggy"
				}
				compareDeltaResults(t, name, full, delta)
			}
		}
	}
}

// TestDeltaMaterializeMatchesFullCopyUnderFaults: with the fault injector
// on, tears and bit-flips must land identically in both engines — the
// injector is a pure function of (seed, state identity), and the delta path
// applies TornPrefix inside its spans and mirrors FlipBit into the volatile
// image exactly as materialize does.
func TestDeltaMaterializeMatchesFullCopyUnderFaults(t *testing.T) {
	fc := &pmem.FaultConfig{Seed: 11, TearOneInN: 2, FlipOneInN: 3}
	full := mustRun(t, Config{
		NewFS: novaFS(bugs.None()), Faults: fc,
		DisableDeltaMaterialize: true,
	}, mixedWorkload())
	delta := mustRun(t, Config{NewFS: novaFS(bugs.None()), Faults: fc}, mixedWorkload())
	compareDeltaResults(t, "faults", full, delta)
}

// TestDeltaMaterializeRetiresPoisonedImages: a guest that panics during
// Mount leaves its pooled image in an unknown state; the lease protocol
// must retire it (never return it to the pool) while still classifying
// every state identically to the full-copy engine.
func TestDeltaMaterializeRetiresPoisonedImages(t *testing.T) {
	w := sandboxWorkload()
	col := obs.New()
	delta := mustRun(t, Config{
		NewFS: panicNovaFS(bugs.None()), CheckRetries: -1, Obs: col,
	}, w)
	full := mustRun(t, Config{
		NewFS: panicNovaFS(bugs.None()), CheckRetries: -1,
		DisableDeltaMaterialize: true,
	}, w)
	compareDeltaResults(t, "panic-guest", full, delta)
	if retired := delta.Obs.Count(obs.CtrImagesRetired); retired == 0 {
		t.Error("panicking guest retired no images")
	}
}

// TestDeltaMaterializeRetiresAbandonedImages: a check that outlives its
// deadline abandons its goroutine, which still owns the image — the
// dispatcher must retire it rather than race the rollback.
func TestDeltaMaterializeRetiresAbandonedImages(t *testing.T) {
	col := obs.New()
	res := mustRun(t, Config{
		NewFS:        hangNovaFS(bugs.None()),
		CheckTimeout: 40 * time.Millisecond,
		CheckRetries: -1,
		Obs:          col,
	}, sandboxWorkload())
	if len(res.Violations) == 0 {
		t.Fatal("hanging guest produced no timeout violations")
	}
	for i, v := range res.Violations {
		if v.Kind != VTimeout {
			t.Fatalf("violation %d: kind %v, want VTimeout", i, v.Kind)
		}
	}
	if retired := res.Obs.Count(obs.CtrImagesRetired); retired == 0 {
		t.Error("timed-out checks retired no images")
	}
}

// TestDeltaMaterializeBytesScaleWithDiff: the perf contract. Per-state
// materialization cost must track the crash state's diff (subset bytes +
// guest-mutated bytes), not the device size — and full primes must be rare
// (pool reuse + advance-by-recipe), not once per state as in the full-copy
// engine.
func TestDeltaMaterializeBytesScaleWithDiff(t *testing.T) {
	res := mustRun(t, Config{NewFS: novaFS(bugs.None()), Obs: obs.New()}, mixedWorkload())
	states := int64(res.StatesChecked)
	if states == 0 {
		t.Fatal("no states checked")
	}
	mat := res.Obs.Count(obs.CtrBytesMaterialized)
	perState := mat / states
	if perState >= DefaultDevSize/10 {
		t.Errorf("bytes materialized per state = %d, want well under device size %d",
			perState, int64(DefaultDevSize))
	}
	primes := res.Obs.Count(obs.CtrImagePrimes)
	if primes >= states {
		t.Errorf("full primes %d >= states %d; pool reuse never engaged", primes, states)
	}
	if primes == 0 {
		t.Error("no full prime recorded; the first state must prime its image")
	}
	// Every clean check rolls its image back; the counter proves the undo
	// log is engaged on the hot path.
	if res.Obs.Count(obs.CtrBytesRolledBack) == 0 {
		t.Error("no bytes rolled back on a clean run")
	}
	// The same workload on a device twice the size copies the same bytes per
	// state: apply and revert traffic is a property of the diff alone.
	big := mustRun(t, Config{NewFS: novaFS(bugs.None()), DevSize: 2 * DefaultDevSize, Obs: obs.New()}, mixedWorkload())
	copied := func(r *Result) float64 {
		return float64(r.Obs.Count(obs.CtrBytesMaterialized)+r.Obs.Count(obs.CtrBytesRolledBack)) /
			float64(r.StatesChecked)
	}
	if small, large := copied(res), copied(big); large > small*1.1 || small > large*1.1 {
		t.Errorf("copied bytes per state moved with device size: 1x=%.0f 2x=%.0f", small, large)
	}
}

// TestDeltaMaterializePostSyscallSkipsCopy: post-syscall states (empty
// subset) on an already-primed image need no materialization work at all —
// nothing beyond the guest's own mutations is copied for them. Observable
// as total materialized bytes staying below one device copy on a workload
// dominated by post-syscall states.
func TestDeltaMaterializePostSyscallSkipsCopy(t *testing.T) {
	col := obs.New()
	res := mustRun(t, Config{NewFS: novaFS(bugs.None()), Obs: col}, sandboxWorkload())
	if res.StatesChecked == 0 {
		t.Fatal("no states checked")
	}
	mat := res.Obs.Count(obs.CtrBytesMaterialized)
	if mat >= DefaultDevSize {
		t.Errorf("tiny workload materialized %d bytes, want < one device copy (%d)",
			mat, int64(DefaultDevSize))
	}
}
