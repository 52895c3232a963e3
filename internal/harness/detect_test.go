package harness

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
	"chipmunk/internal/obs"
)

// TestTable1AllBugsDetected is the central soundness result of the
// reproduction: for every bug in Table 1, the generic Chipmunk checker —
// which knows nothing about the injected flags — flags the buggy system on
// a minimal workload, and the fixed system passes the same workloads.
func TestTable1AllBugsDetected(t *testing.T) {
	for _, info := range bugs.All() {
		info := info
		t.Run(info.TableRow()[:20], func(t *testing.T) {
			det, err := DetectWithTargeted(info.ID, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if !det.Found {
				t.Fatalf("bug %d (%s) NOT detected on %s (checked %d states over %d workloads)",
					info.ID, info.Consequence, det.System, det.StatesChecked, det.Workloads)
			}
			clean, err := VerifyFixedClean(info.ID, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range clean {
				t.Errorf("fixed %s flagged (false positive): %s", det.System, v)
			}
		})
	}
}

// TestCapTwoSufficient: Observation 7 / §4.2 — a replay cap of two writes
// is enough to find every bug.
func TestCapTwoSufficient(t *testing.T) {
	for _, info := range bugs.All() {
		det, err := DetectWithTargeted(info.ID, core.Config{Cap: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !det.Found {
			t.Errorf("bug %d not found with cap=2", info.ID)
		}
	}
}

// TestDetectWithFuzzerInstruments: the fuzzer half of Figure 3 feeds the
// configured collector (cfg.Obs) like its ACE and targeted siblings, so
// `experiments -stats fig3` counts every fuzzer exec.
func TestDetectWithFuzzerInstruments(t *testing.T) {
	col := obs.New()
	det, err := DetectWithFuzzer(bugs.NovaRenameInPlaceDelete, 42, 20, core.Config{Cap: 2, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot()
	if det.Workloads == 0 || snap.Count(obs.CtrWorkloads) != int64(det.Workloads) {
		t.Fatalf("collector counted %d workloads, detection ran %d", snap.Count(obs.CtrWorkloads), det.Workloads)
	}
}

// TestObservation5MidSyscallRequirement: with crash points only at syscall
// boundaries (the CrashMonkey policy), exactly the bugs Table 2 marks as
// mid-syscall-dependent become invisible.
func TestObservation5MidSyscallRequirement(t *testing.T) {
	for _, info := range bugs.All() {
		det, err := DetectWithTargeted(info.ID, core.Config{PostOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		if info.NeedsMidCrash && det.Found {
			t.Errorf("bug %d should require mid-syscall crashes but was found post-only (via %s, %s)",
				info.ID, det.Via, det.Kind)
		}
		if !info.NeedsMidCrash && !det.Found {
			t.Errorf("bug %d should be detectable from post-syscall states alone", info.ID)
		}
	}
}

// TestDetectPrefixMemoMatchesUnshared: DetectWithACE shares one prefix memo
// across its seq-1, seq-2 and seq-3-metadata scan, and must reach exactly
// the Detection a memo-less core.RunContext loop over the same scan does —
// for a bug seq-1 finds and for one no ACE workload reaches, whose scan runs
// out its bound inside seq-2.
func TestDetectPrefixMemoMatchesUnshared(t *testing.T) {
	const maxWorkloads = 300
	for _, c := range []struct {
		id    bugs.ID
		found bool
	}{{bugs.NovaRenameInPlaceDelete, true}, {bugs.NTTailNotFenced, false}} {
		id := c.id
		t.Run(fmt.Sprint(id), func(t *testing.T) {
			t.Parallel()
			got, err := DetectWithACE(id, maxWorkloads, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			info, _ := bugs.Lookup(id)
			sys, err := BugSystem(info)
			if err != nil {
				t.Fatal(err)
			}
			cfg := detectConfig(core.Config{}, sys, bugs.Of(id))
			want := Detection{Bug: info, System: sys.Name}
			scan := slices.Concat(ace.Seq1(), ace.Seq2(), ace.Seq3Metadata())
			for _, w := range scan[:maxWorkloads] {
				res, err := core.RunContext(context.Background(), cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				want.Workloads++
				want.StatesChecked += res.StatesChecked
				if res.Buggy() {
					want.Found, want.Via = true, w.Name
					want.Kind, want.Phase = res.Violations[0].Kind, res.Violations[0].Phase
					break
				}
			}
			got.Elapsed = 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shared scan: %+v\nunshared scan: %+v", got, want)
			}
			if got.Found != c.found || !got.Found && got.Workloads != maxWorkloads {
				t.Fatalf("bug %d: found %v after %d workloads; the case expects found=%v", id, got.Found, got.Workloads, c.found)
			}
		})
	}
}
