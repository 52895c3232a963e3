package harness

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
	"chipmunk/internal/obs"
	"chipmunk/internal/workload"
)

// TestEngineMatrix is the engine's reference: for every case of the memo
// differential's table — seven systems with and without bugs and faults,
// seq-1 and the kv suite, a seq-2 sample, the Vinter filter, op prefixes and
// a hostile guest — each workload's memo-less core.RunContext Result must
// reproduce the line pinned under testdata/engine: its counts and the
// SHA-256 of everything resultDiff compares. The goldens are the recorded
// output of the engine's earlier materialization, sandbox, snapshot and
// pooling paths, which all produced them alike. Regenerate (only when a
// change is MEANT to alter results) with:
//
//	CHIPMUNK_UPDATE_GOLDENS=1 go test ./internal/harness -run EngineMatrix
func TestEngineMatrix(t *testing.T) {
	update := os.Getenv("CHIPMUNK_UPDATE_GOLDENS") != ""
	for _, c := range memoCases(t) {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			got := make([]string, len(c.suite))
			for i, w := range c.suite {
				res, err := core.RunContext(context.Background(), c.cfg, w)
				if err != nil {
					t.Fatalf("%s: %v", w.Name, err)
				}
				got[i] = goldenLine(w.Name, res)
			}
			if update {
				path := goldenPath(c.name)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want := readGolden(t, c.name)
			if len(want) != len(got) {
				t.Fatalf("%d workloads, golden has %d", len(got), len(want))
			}
			failed := 0
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("workload %d diverged from the golden\n got: %s\nwant: %s", i, got[i], want[i])
					if failed++; failed == 5 {
						t.Fatal("stopping after 5 divergent workloads")
					}
				}
			}
		})
	}
}

// goldenPath is where the matrix case named name keeps its golden.
func goldenPath(name string) string {
	return filepath.Join("testdata", "engine", strings.ReplaceAll(name, "/", "_")+".golden")
}

// readGolden returns the golden lines of the matrix case named name.
func readGolden(t *testing.T, name string) []string {
	t.Helper()
	data, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("missing golden (generate with CHIPMUNK_UPDATE_GOLDENS=1): %v", err)
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

// matrixSlice is sys's clean seq-1 matrix case — every published bug on a
// strong system, none on a weak one — cut to its first n workloads, with
// their golden lines.
func matrixSlice(t *testing.T, sys System, n int) (core.Config, []workload.Workload, []string) {
	t.Helper()
	set, tag, suite := bugs.AllSet(), "all-bugs", ace.Seq1()
	if sys.Weak {
		set, tag, suite = bugs.None(), "no-bugs", ace.Seq1Dax()
	}
	want := readGolden(t, sys.Name+"/"+tag+"/clean/seq1")
	return Options{Bugs: set, Obs: obs.New()}.ConfigFor(sys), suite[:n], want[:n]
}

// checkGolden requires res to reproduce its golden line.
func checkGolden(t *testing.T, name string, res *core.Result, want string) {
	t.Helper()
	if got := goldenLine(name, res); got != want {
		t.Errorf("%s diverged from the golden\n got: %s\nwant: %s", name, got, want)
	}
}

// goldenLine renders one workload's Result as its golden line: the census
// counts, then the SHA-256 of its canonical form and deterministic counters
// as JSON, with every op error spelled out (JSON drops an error's message).
func goldenLine(name string, r *core.Result) string {
	errs := make([]string, len(r.OpResults))
	for i, o := range r.OpResults {
		if o.Err != nil {
			errs[i] = o.Err.Error()
		}
	}
	b, err := json.Marshal(struct {
		Result   core.Result
		OpErrs   []string
		Counters map[string]int64
	}{canonical(r), errs, r.Obs.DeterministicCounters()})
	if err != nil {
		panic(err)
	}
	return fmt.Sprintf("%s checked=%d deduped=%d fences=%d truncated=%d violations=%d quarantined=%d sha256=%x",
		name, r.StatesChecked, r.StatesDeduped, r.Fences, r.TruncatedFences,
		len(r.Violations)+r.SuppressedViolations, len(r.Quarantined)+r.SuppressedQuarantine, sha256.Sum256(b))
}
