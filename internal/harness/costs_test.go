package harness

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/obs"
	"chipmunk/internal/workload"
)

// costCase is one (system × suite) line of the cost-counter golden.
type costCase struct {
	name string
	sys  System
	opts Options
	ws   []workload.Workload
}

// costCases are seq1 and kv-smoke on all seven fixed systems, seq2 on NOVA,
// and the first seven whole seq2 prefixes (7 × 56 workloads) on PMFS and
// WineFS, whose in-place journals fork nothing but share memo verdicts.
func costCases() []costCase {
	var cases []costCase
	seq2 := ace.Seq2()
	prefixes := seq2[:7*len(ace.Variants())]
	for _, sys := range Systems() {
		clean := Options{Bugs: bugs.None()}
		cases = append(cases,
			costCase{sys.Name + " seq1", sys, clean, ace.Seq1()},
			costCase{sys.Name + " kv-smoke", sys, Options{Bugs: bugs.None(), App: "kv"}, ace.KVSmoke()})
		switch sys.Name {
		case "nova":
			cases = append(cases, costCase{sys.Name + " seq2", sys, clean, seq2})
		case "pmfs", "winefs":
			cases = append(cases, costCase{sys.Name + " seq2[:392]", sys, clean, prefixes})
		}
	}
	return cases
}

// costLine renders a serial census as its golden line: every counter in
// name order, the mount count, and the simulated-PM traffic.
func costLine(name string, c *Census) string {
	var b strings.Builder
	b.WriteString(name)
	names := make([]string, 0, len(c.Obs.Counters))
	for n := range c.Obs.Counters {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%d", n, c.Obs.Counters[n])
	}
	pm := c.Obs.PM
	fmt.Fprintf(&b, " mount=%d pm-stores=%d pm-nt=%d pm-flushes=%d pm-lines=%d pm-fences=%d pm-sim-ns=%d",
		c.Obs.Stage(obs.StageMount).Count, pm.StoreBytes, pm.NTBytes, pm.Flushes, pm.LinesFlushed, pm.Fences, pm.SimNanos)
	return b.String()
}

// TestCostCounters pins what the engine's pruning and reuse layers save: for
// each case, a serial Run's counters (memo-served, observations-shared,
// mkfs, bytes-rolled-back, …) and mount count, against
// testdata/costs/serial.golden. The engine goldens pin verdicts only, so a
// change that makes the memo serve a tenth of what it serves, or forks
// nowhere, passes them and fails here. Serial only: memo-served, the
// observation counters, mkfs, ops-recorded and the image counters move with
// how a suite is cut over workers. Regenerate (only when a change is MEANT
// to move a cost, naming each moved line) with:
//
//	CHIPMUNK_UPDATE_GOLDENS=1 go test ./internal/harness -run CostCounters
func TestCostCounters(t *testing.T) {
	cases := costCases()
	got := make([]string, len(cases))
	for i, c := range cases {
		c.opts.Obs = obs.New()
		census, _, err := Run(context.Background(), c.opts.ConfigFor(c.sys), c.ws)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[i] = costLine(c.name, census)
	}
	path := filepath.Join("testdata", "costs", "serial.golden")
	if os.Getenv("CHIPMUNK_UPDATE_GOLDENS") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (generate with CHIPMUNK_UPDATE_GOLDENS=1): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d cases, golden has %d lines", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("costs moved\n got: %s\nwant: %s", got[i], want[i])
		}
	}
}
