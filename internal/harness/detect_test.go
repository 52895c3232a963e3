package harness

import (
	"testing"

	"chipmunk/internal/bugs"
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
			det, err := DetectWithTargeted(info.ID, DetectOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !det.Found {
				t.Fatalf("bug %d (%s) NOT detected on %s (checked %d states over %d workloads)",
					info.ID, info.Consequence, det.System, det.StatesChecked, det.Workloads)
			}
			clean, err := VerifyFixedClean(info.ID, DetectOptions{})
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
		det, err := DetectWithTargeted(info.ID, DetectOptions{Cap: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !det.Found {
			t.Errorf("bug %d not found with cap=2", info.ID)
		}
	}
}

// TestDetectWithFuzzerInstruments: the fuzzer half of Figure 3 feeds the
// DetectOptions collector like its ACE and targeted siblings, so
// `experiments -stats fig3` counts every fuzzer exec.
func TestDetectWithFuzzerInstruments(t *testing.T) {
	col := obs.New()
	det, err := DetectWithFuzzer(bugs.NovaRenameInPlaceDelete, 42, 20, DetectOptions{Cap: 2, Obs: col})
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
		det, err := DetectWithTargeted(info.ID, DetectOptions{PostOnly: true})
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
