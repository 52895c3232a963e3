// fuzzing: a gray-box fuzzing session against SplitFS.
//
// Two of the paper's 23 bugs (Table 1 bugs 22 and 23, both in SplitFS) need
// a workload that opens TWO file descriptors on the same file and writes
// through both — a pattern the systematic ACE generator never produces
// (§4.3). This example fuzzes SplitFS as published and shows the triaged
// bug-report clusters, including the two-descriptor data-loss bugs.
//
// Run with: go run ./examples/fuzzing
package main

import (
	"fmt"
	"log"
	"time"

	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
	"chipmunk/internal/fs/splitfs"
	"chipmunk/internal/fuzz"
	"chipmunk/internal/persist"
	"chipmunk/internal/vfs"
)

func main() {
	fmt.Println("== Fuzzing SplitFS (as published) ==")
	set := bugs.Of(bugs.SplitfsStagePerFD, bugs.SplitfsRelinkSkip,
		bugs.SplitfsOplogUnfenced, bugs.SplitfsTailBeforeCsum, bugs.SplitfsRenameOldSurvives)
	cfg := core.Config{
		NewFS: func(pm *persist.PM) vfs.FS { return splitfs.New(pm, set) },
		Cap:   2, // the paper's fuzzing cap (§4.2)
	}
	fz := fuzz.New(cfg, 7, nil)

	start := time.Now()
	const budget = 600
	for i := 0; i < budget; i++ {
		if _, _, err := fz.Step(); err != nil {
			log.Fatal(err)
		}
		if (i+1)%150 == 0 {
			fmt.Printf("  %4d execs | corpus %3d | trace-coverage %4d | clusters so far: %d\n",
				i+1, fz.CorpusSize(), fz.CoverageSize(), len(core.Triage(fz.Violations)))
		}
	}
	fmt.Printf("\n%d executions, %d crash states in %v\n",
		fz.Census.Workloads, fz.Census.StatesChecked, time.Since(start).Round(time.Millisecond))
	clusters := core.Triage(fz.Violations)
	fmt.Printf("%d raw reports triaged into %d clusters:\n", len(fz.Violations), len(clusters))
	for i, c := range clusters {
		fmt.Printf("\n--- cluster %d (%d reports) ---\n%s\n", i+1, c.Count, c.Representative)
	}
}
