package harness

import (
	"context"
	"testing"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
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
//
// The permuted run is held only to the serving no schedule can change. An
// image one workload repeats is stored before the repeat looks it up,
// whichever worker runs it, so where a workload alone serves, the permuted
// run must serve. An image only different workloads share (the DAX
// systems') may be mounted by both workers at once and served by neither:
// there the permuted run must serve, or mount more images than the serial
// run, which mounted each image once.
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
			repeats := !c.cfg.Faults.Enabled() && !c.hostile
			got := runShared(t, int64(i), c)
			served, mounts := map[string]int64{}, map[string]int64{}
			for mode, rs := range got {
				for _, res := range rs {
					served[mode] += res.Obs.Count(obs.CtrObservationsServed)
					mounts[mode] += res.Obs.Stage(obs.StageMount).Count
				}
				if !repeats && served[mode] != 0 {
					t.Errorf("%s: %d observations served, want none", mode, served[mode])
				}
			}
			switch {
			case !repeats:
			case served["serial"] == 0:
				t.Error("serial: no observation served")
			case served["j=2"] == 0 && servesAlone(t, c):
				t.Error("j=2: no observation served, though a workload alone serves")
			case served["j=2"] == 0 && mounts["j=2"] <= mounts["serial"]:
				t.Errorf("j=2: no observation served, and %d mounts against the serial run's %d", mounts["j=2"], mounts["serial"])
			}
		})
	}
}

// servesAlone reports whether a workload of c's suite, run alone on a memo
// of its own, serves an observation: it repeats an image within its run.
func servesAlone(t *testing.T, c memoCase) bool {
	for _, w := range c.suite {
		res, err := core.NewPrefixMemo().Run(context.Background(), c.cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if res.Obs.Count(obs.CtrObservationsServed) > 0 {
			return true
		}
	}
	return false
}
