package core

import (
	"reflect"
	"strings"
	"testing"

	"chipmunk/internal/bugs"
	"chipmunk/internal/obs"
	"chipmunk/internal/pmem"
	"chipmunk/internal/workload"
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

// TestFaultsOffMatchesBaseline: a zero-rate FaultConfig is a no-op — the run
// must equal a fault-free run in every Result field but the Obs snapshot.
func TestFaultsOffMatchesBaseline(t *testing.T) {
	for _, set := range []bugs.Set{bugs.None(), bugs.AllSet()} {
		for _, w := range []workload.Workload{renameWorkload(), mixedWorkload()} {
			base := mustRun(t, Config{NewFS: novaFS(set), Obs: obs.New()}, w)
			zero := mustRun(t, Config{NewFS: novaFS(set), Obs: obs.New(), Faults: &pmem.FaultConfig{Seed: 9}}, w)
			base.Obs, zero.Obs = nil, nil
			if !reflect.DeepEqual(base, zero) {
				t.Errorf("%s: zero-rate FaultConfig changed the run:\n%+v\nvs fault-free\n%+v", w.Name, zero, base)
			}
		}
	}
}
