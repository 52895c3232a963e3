// fsdev: the "developer loop" from the paper's Lesson 3.
//
// Chipmunk's ACE seq-1 suite runs in seconds and is meant to be part of a
// PM file-system developer's edit-compile-test cycle. This example plays a
// WineFS developer who has just written the per-CPU journal recovery code:
// the seq-1 suite is run against the build with Table 1's WineFS bugs
// present, and again after fixing them.
//
// Run with: go run ./examples/fsdev
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
	"chipmunk/internal/fs/winefs"
	"chipmunk/internal/persist"
	"chipmunk/internal/vfs"
)

func runSuite(label string, set bugs.Set) int {
	cfg := core.Config{NewFS: func(pm *persist.PM) vfs.FS {
		return winefs.New(pm, set)
	}}
	start := time.Now()
	suite := ace.Seq1()
	var census core.Census
	var firstBug *core.Violation
	buggyWorkloads := 0
	for _, w := range suite {
		res, err := core.RunContext(context.Background(), cfg, w)
		if err != nil {
			log.Fatal(err)
		}
		census.Add(res)
		if res.Buggy() {
			buggyWorkloads++
			if firstBug == nil {
				v := res.Violations[0]
				firstBug = &v
			}
		}
	}
	fmt.Printf("%-28s %3d workloads, %5d crash states, %8v: %d buggy workloads\n",
		label, census.Workloads, census.StatesChecked, time.Since(start).Round(time.Millisecond), buggyWorkloads)
	if firstBug != nil {
		fmt.Printf("\n  first report:\n  %s\n\n", firstBug)
	}
	return buggyWorkloads
}

func main() {
	fmt.Println("== WineFS developer loop: ACE seq-1 before and after bug fixes ==")
	fmt.Println("(the paper runs this suite in <15 minutes on a VM; the simulated")
	fmt.Println(" stack finishes in seconds, which is the point of Lesson 3)")
	fmt.Println()

	// The build with the WineFS bugs of Table 1 (19 = per-CPU journal
	// recovery, 14&15 = missing data fence).
	before := runSuite("winefs (bugs 14,19):", bugs.Of(bugs.WriteNotSync, bugs.WinefsJournalIndex))
	after := runSuite("winefs (fixed):", bugs.None())

	if before > 0 && after == 0 {
		fmt.Println("fixes verified: the suite is clean.")
	}
}
