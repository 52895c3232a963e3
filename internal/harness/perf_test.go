package harness

import (
	"context"
	"testing"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
)

// TestPerfFastPathsMatchLegacyAllSystems: each perf fast path — coalesced
// delta application, shared per-crash-point oracle snapshots, cross-run
// buffer pooling — must be byte-identical to its legacy code path across all
// seven systems, on violating runs (published bug sets) and clean ones
// alike. One default-config run serves as the baseline every legacy knob is
// compared against, including quarantine ledgers.
func TestPerfFastPathsMatchLegacyAllSystems(t *testing.T) {
	knobs := []struct {
		name string
		set  func(*core.Config)
	}{
		{"per-store-apply", func(c *core.Config) { c.DisableCoalescedApply = true }},
		{"per-check-oracle", func(c *core.Config) { c.DisableOracleSnapshot = true }},
		{"fresh-buffers", func(c *core.Config) { c.DisableBufferReuse = true }},
	}
	for _, sys := range Systems() {
		sys := sys
		t.Run(sys.Name, func(t *testing.T) {
			t.Parallel()
			set := bugs.AllSet()
			suite := ace.Seq1()[:4]
			if sys.Weak {
				set = bugs.None()
				suite = ace.Seq1Dax()[:4]
			}
			fastCfg := Options{Bugs: set, Cap: 2}.ConfigFor(sys)
			for _, w := range suite {
				fast, err := core.RunContext(context.Background(), fastCfg, w)
				if err != nil {
					t.Fatalf("%s fast: %v", w.Name, err)
				}
				for _, k := range knobs {
					legacyCfg := fastCfg
					k.set(&legacyCfg)
					legacy, err := core.RunContext(context.Background(), legacyCfg, w)
					if err != nil {
						t.Fatalf("%s %s: %v", w.Name, k.name, err)
					}
					compareResults(t, w.Name+"/"+k.name, legacy, fast)
					if len(legacy.Quarantined) != len(fast.Quarantined) {
						t.Fatalf("%s/%s: quarantine ledgers diverge: legacy %d, fast %d",
							w.Name, k.name, len(legacy.Quarantined), len(fast.Quarantined))
					}
					for i := range legacy.Quarantined {
						if legacy.Quarantined[i].String() != fast.Quarantined[i].String() {
							t.Errorf("%s/%s: quarantine %d differs\nlegacy: %s\nfast:   %s",
								w.Name, k.name, i, legacy.Quarantined[i], fast.Quarantined[i])
						}
					}
				}
			}
		})
	}
}
