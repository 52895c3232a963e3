package core

import (
	"strings"
	"testing"

	"chipmunk/internal/bugs"
	"chipmunk/internal/pmem"
)

// TestFaultInjectionDeterministic: fault decisions are pure functions of
// (seed, site), so two runs with the same FaultConfig must produce
// byte-identical results.
func TestFaultInjectionDeterministic(t *testing.T) {
	w := heavyWorkload()
	faults := &pmem.FaultConfig{Seed: 11, TearOneInN: 3, FlipOneInN: 4, ReadErrOneInN: 512}
	cfg := Config{NewFS: novaFS(bugs.None()), Faults: faults}
	base, res := mustRun(t, cfg, w), mustRun(t, cfg, w)
	if res.StatesChecked != base.StatesChecked || res.StatesDeduped != base.StatesDeduped ||
		res.TruncatedFences != base.TruncatedFences {
		t.Errorf("accounting diverged: %+v vs %+v", res, base)
	}
	if len(res.Violations) != len(base.Violations) {
		t.Fatalf("%d violations != %d", len(res.Violations), len(base.Violations))
	}
	for i := range res.Violations {
		if res.Violations[i].String() != base.Violations[i].String() {
			t.Errorf("violation %d differs\ngot:  %s\nwant: %s",
				i, res.Violations[i], base.Violations[i])
		}
	}
	if len(res.Quarantined) != len(base.Quarantined) {
		t.Fatalf("ledger %d != %d", len(res.Quarantined), len(base.Quarantined))
	}
	for i := range res.Quarantined {
		if res.Quarantined[i].String() != base.Quarantined[i].String() {
			t.Errorf("quarantine %d differs", i)
		}
	}
}

// TestFaultMediaErrorsClassified: with every cache line poisoned, every
// crash state's first recovery read raises *pmem.MediaError; the sandbox
// classifies each as VUnreadable — a modeled crash outcome, so nothing is
// quarantined and the census completes.
func TestFaultMediaErrorsClassified(t *testing.T) {
	w := renameWorkload()
	faults := &pmem.FaultConfig{Seed: 1, ReadErrOneInN: 1}
	res := mustRun(t, Config{NewFS: novaFS(bugs.None()), Faults: faults}, w)
	if res.StatesChecked == 0 {
		t.Fatal("no states checked")
	}
	if len(res.Violations)+res.SuppressedViolations != res.StatesChecked {
		t.Errorf("%d violations + %d suppressed != %d states (every poisoned state must report)",
			len(res.Violations), res.SuppressedViolations, res.StatesChecked)
	}
	for i, v := range res.Violations {
		if v.Kind != VUnreadable {
			t.Fatalf("violation %d: kind %v, want VUnreadable", i, v.Kind)
		}
		if !strings.Contains(v.Detail, "media error") {
			t.Fatalf("violation %d detail %q lacks the media error", i, v.Detail)
		}
	}
	if len(res.Quarantined) != 0 {
		t.Errorf("media errors quarantined %d states; they are modeled outcomes, not checker failures",
			len(res.Quarantined))
	}
}

// TestFaultsForceSandbox: DisableSandbox must be ignored when faults are on
// — media errors surface as panics only the sandbox can classify, so an
// inline run would crash the engine.
func TestFaultsForceSandbox(t *testing.T) {
	w := renameWorkload()
	res := mustRun(t, Config{
		NewFS:          novaFS(bugs.None()),
		DisableSandbox: true,
		Faults:         &pmem.FaultConfig{Seed: 1, ReadErrOneInN: 1},
	}, w)
	if len(res.Violations) == 0 {
		t.Fatal("poisoned run reported nothing")
	}
	for i, v := range res.Violations {
		if v.Kind != VUnreadable {
			t.Fatalf("violation %d: kind %v, want VUnreadable", i, v.Kind)
		}
	}
}

// TestFaultsOffMatchesBaseline: a nil/zero FaultConfig is a no-op — the run
// must equal a fault-free run exactly.
func TestFaultsOffMatchesBaseline(t *testing.T) {
	w := renameWorkload()
	base := mustRun(t, Config{NewFS: novaFS(bugs.None())}, w)
	zero := mustRun(t, Config{NewFS: novaFS(bugs.None()), Faults: &pmem.FaultConfig{Seed: 9}}, w)
	if base.StatesChecked != zero.StatesChecked || len(base.Violations) != len(zero.Violations) {
		t.Errorf("zero-rate FaultConfig changed the run: %+v vs %+v", zero, base)
	}
}
