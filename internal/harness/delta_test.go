package harness

import (
	"context"
	"testing"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
	"chipmunk/internal/fs/nova"
	"chipmunk/internal/persist"
	"chipmunk/internal/vfs"
)

// TestDeltaMaterializeMatchesFullCopyAllSystems: the O(diff) delta path
// must be byte-identical to the full-copy engine across all seven systems,
// on violating runs (published bug sets) and clean ones alike.
func TestDeltaMaterializeMatchesFullCopyAllSystems(t *testing.T) {
	for _, sys := range Systems() {
		sys := sys
		t.Run(sys.Name, func(t *testing.T) {
			t.Parallel()
			set := bugs.AllSet()
			suite := ace.Seq1()[:8]
			if sys.Weak {
				set = bugs.None()
				suite = ace.Seq1Dax()[:8]
			}
			delta := Options{Bugs: set, Cap: 2}.ConfigFor(sys)
			full := delta
			full.DisableDeltaMaterialize = true
			for _, w := range suite {
				rf, err := core.RunContext(context.Background(), full, w)
				if err != nil {
					t.Fatalf("%s full-copy: %v", w.Name, err)
				}
				rd, err := core.RunContext(context.Background(), delta, w)
				if err != nil {
					t.Fatalf("%s delta: %v", w.Name, err)
				}
				compareResults(t, w.Name, rf, rd)
				if len(rf.Quarantined) != len(rd.Quarantined) {
					t.Fatalf("%s: quarantine ledgers diverge: full %d, delta %d",
						w.Name, len(rf.Quarantined), len(rd.Quarantined))
				}
				for i := range rf.Quarantined {
					if rf.Quarantined[i].String() != rd.Quarantined[i].String() {
						t.Errorf("%s: quarantine %d differs\nfull:  %s\ndelta: %s",
							w.Name, i, rf.Quarantined[i], rd.Quarantined[i])
					}
				}
			}
		})
	}
}

// deltaPanicFS panics on Mount; the record pass underneath is real nova.
type deltaPanicFS struct{ vfs.FS }

func (f deltaPanicFS) Mount() error { panic("hostile crash state") }

// TestDeltaMaterializeHostileGuestAgreement: a guest that panics mid-mount
// poisons pooled images (the retirement path), and the classification must
// still agree with the full-copy engine.
func TestDeltaMaterializeHostileGuestAgreement(t *testing.T) {
	newFS := func(pm *persist.PM) vfs.FS {
		return deltaPanicFS{nova.New(pm, bugs.None())}
	}
	suite := ace.Seq1()[:2]
	full := core.Config{NewFS: newFS, Cap: 2, CheckRetries: -1, DisableDeltaMaterialize: true}
	delta := core.Config{NewFS: newFS, Cap: 2, CheckRetries: -1}
	for _, w := range suite {
		rf, err := core.RunContext(context.Background(), full, w)
		if err != nil {
			t.Fatalf("%s full-copy: %v", w.Name, err)
		}
		rd, err := core.RunContext(context.Background(), delta, w)
		if err != nil {
			t.Fatalf("%s delta: %v", w.Name, err)
		}
		compareResults(t, w.Name, rf, rd)
		if len(rd.Quarantined) == 0 {
			t.Fatalf("%s: hostile guest quarantined nothing", w.Name)
		}
	}
}
