package harness

import (
	"context"
	"math"
	"testing"

	"chipmunk/internal/core"
	"chipmunk/internal/obs"
	"chipmunk/internal/pmem"
)

// diffButObs is resultDiff for runs whose Obs snapshots legitimately differ.
func diffButObs(want, got *core.Result) string {
	w, g := *want, *got
	w.Obs, g.Obs = nil, nil
	return resultDiff(&w, &g)
}

// perCheckOracle judges every state with a fresh oracle contract, so every
// judgement builds its own oracle view.
type perCheckOracle struct {
	core.Checker
	env core.RunEnv
}

func (p perCheckOracle) Judge(o core.Observation, cctx *core.CheckContext) *core.Finding {
	return core.NewOracleChecker(p.env).Judge(o, cctx)
}

// TestPerfFastPathsMatchLegacyAllSystems: each perf fast path must reproduce
// the path it replaced across all seven systems, on violating runs
// (published bug sets) and clean ones alike. The default run — coalesced
// delta application, shared per-crash-point oracle snapshots, pooled
// buffers — must reproduce its engine-matrix golden, and equal in every
// Result field a run applying each in-flight store individually (fault
// injection's path, selected by a tear rate no write hits) and a run whose
// checker rebuilds the oracle view in every judgement.
func TestPerfFastPathsMatchLegacyAllSystems(t *testing.T) {
	// Each legacy run must leave its counter at zero: no fault injected, no
	// shared snapshot consulted.
	legacies := []struct {
		name string
		set  func(*core.Config)
		zero obs.Counter
	}{
		{"per-store-apply", func(c *core.Config) {
			c.Faults = &pmem.FaultConfig{Seed: 1, TearOneInN: math.MaxInt64}
		}, obs.CtrFaultsInjected},
		{"per-check-oracle", func(c *core.Config) {
			c.Checker = func(env core.RunEnv) core.Checker { return perCheckOracle{core.NewOracleChecker(env), env} }
		}, obs.CtrOracleSnapshotHits},
	}
	for _, sys := range Systems() {
		t.Run(sys.Name, func(t *testing.T) {
			t.Parallel()
			cfg, suite, want := matrixSlice(t, sys, 4)
			for i, w := range suite {
				fast, err := core.RunContext(context.Background(), cfg, w)
				if err != nil {
					t.Fatalf("%s fast: %v", w.Name, err)
				}
				checkGolden(t, w.Name, fast, want[i])
				for _, l := range legacies {
					legacyCfg := cfg
					l.set(&legacyCfg)
					legacy, err := core.RunContext(context.Background(), legacyCfg, w)
					if err != nil {
						t.Fatalf("%s %s: %v", w.Name, l.name, err)
					}
					if n := legacy.Obs.Count(l.zero); n != 0 {
						t.Errorf("%s %s: %s = %d, want 0", w.Name, l.name, l.zero, n)
					}
					if d := diffButObs(fast, legacy); d != "" {
						t.Errorf("%s %s: %s", w.Name, l.name, d)
					}
				}
			}
		})
	}
}
