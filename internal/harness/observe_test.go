package harness

import (
	"testing"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/obs"
)

// TestObservationTableMatchesUnshared is the differential of the
// observation table: over the prefix-memo cases and seq-2 slices of NOVA,
// PMFS and WineFS with every bug, Run — serially, and permuted over two
// workers — returns for each workload exactly the Result a memo-less
// core.RunContext loop does, while serving the states whose image a run
// of the suite had already mounted: every case serves some, but a faulted
// one, whose images are not stored, and a hostile one, whose checks all
// panic.
func TestObservationTableMatchesUnshared(t *testing.T) {
	cases := memoCases(t)
	for _, name := range []string{"nova", "pmfs", "winefs"} {
		sys, _ := SystemByName(name)
		cases = append(cases, memoCase{
			name:  name + "/all-bugs/clean/seq2-later",
			cfg:   Options{Bugs: bugs.AllSet(), Obs: obs.New()}.ConfigFor(sys),
			suite: ace.Seq2()[560:672],
		})
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for mode, got := range runShared(t, int64(i), c) {
				var served int64
				for _, res := range got {
					served += res.Obs.Count(obs.CtrObservationsServed)
				}
				switch repeats := !c.cfg.Faults.Enabled() && !c.hostile; {
				case !repeats && served != 0:
					t.Errorf("%s: %d observations served, want none", mode, served)
				case repeats && served == 0:
					t.Errorf("%s: no observation served", mode)
				}
			}
		})
	}
}
