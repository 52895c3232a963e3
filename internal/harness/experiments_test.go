package harness

import (
	"context"
	"strings"
	"testing"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
)

func TestRunTable1AllFound(t *testing.T) {
	if testing.Short() {
		t.Skip("Table 1 runs exhaustive targeted detection for all 23 bugs; slow in -short mode")
	}
	rows, err := RunTable1(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 23 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Detection.Found {
			t.Errorf("bug %d not found", r.Bug.ID)
		}
	}
	rendered := RenderTable1(rows)
	if !strings.Contains(rendered, "Rename atomicity broken") || strings.Contains(rendered, " NO ") {
		t.Fatalf("table rendering wrong:\n%s", rendered)
	}
}

func TestRunTable2MatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("Table 2 re-measures every bug at several caps; slow in -short mode")
	}
	t2, err := RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(t2.LogicBugs); got != 19 {
		t.Errorf("logic bugs = %d, want 19", got)
	}
	if got := len(t2.MidSyscallMeasured); got != 11 {
		t.Errorf("measured mid-syscall bugs = %d, want 11 (got %v)", got, t2.MidSyscallMeasured)
	}
	// Obs 7: of the measured mid-syscall bugs, 10 need cap 1 and one needs 2.
	one, two := 0, 0
	for _, c := range t2.MinWritesMeasured {
		switch c {
		case 1:
			one++
		case 2:
			two++
		}
	}
	if one != 10 || two != 1 {
		t.Errorf("measured min-writes = %d/%d, want 10/1 (%v)", one, two, t2.MinWritesMeasured)
	}
	// The measured mid-syscall set must equal the registry's classification.
	want := map[bugs.ID]bool{}
	for _, info := range bugs.All() {
		if info.NeedsMidCrash {
			want[info.ID] = true
		}
	}
	for _, id := range t2.MidSyscallMeasured {
		if !want[id] {
			t.Errorf("bug %d measured mid-syscall but not classified so", id)
		}
		delete(want, id)
	}
	for id := range want {
		t.Errorf("bug %d classified mid-syscall but found post-only", id)
	}
	if out := t2.Render(); !strings.Contains(out, "in-place") && !strings.Contains(out, "In-place") && !strings.Contains(out, "in-DRAM") {
		t.Errorf("render missing content:\n%s", out)
	}
}

// TestACEFindsReachableBugsQuickly: every ACE-reachable bug is discovered
// within the seq-1 + seq-2 prefix (bounded for test time).
func TestACEFindsReachableBugsQuickly(t *testing.T) {
	if testing.Short() {
		t.Skip("ACE scan is slow in -short mode")
	}
	for _, info := range bugs.All() {
		if !info.ACEReachable {
			continue
		}
		det, err := DetectWithACE(info.ID, 400, core.Config{Cap: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !det.Found {
			t.Errorf("ACE-reachable bug %d not found within 400 workloads", info.ID)
		}
	}
}

// TestACEMissesUnreachableBugs: the four fuzzer-only bugs survive an ACE
// prefix scan (§4.3): unaligned writes and two-FD patterns are outside
// ACE's lattice.
func TestACEMissesUnreachableBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("ACE scan is slow in -short mode")
	}
	for _, info := range bugs.All() {
		if info.ACEReachable {
			continue
		}
		det, err := DetectWithACE(info.ID, 300, core.Config{Cap: 2})
		if err != nil {
			t.Fatal(err)
		}
		if det.Found {
			t.Errorf("ACE found supposedly unreachable bug %d via %s", info.ID, det.Via)
		}
	}
}

// TestFuzzerFindsACEUnreachableBugs: the fuzzer reaches all four (§4.3).
func TestFuzzerFindsACEUnreachableBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing is slow in -short mode")
	}
	for _, info := range bugs.All() {
		if info.ACEReachable {
			continue
		}
		det, err := DetectWithFuzzer(info.ID, 42, 600, core.Config{Cap: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !det.Found {
			t.Errorf("fuzzer did not find ACE-unreachable bug %d in 600 execs", info.ID)
		}
	}
}

func TestInFlightCensusMatchesPaperShape(t *testing.T) {
	census, err := InFlightCensus()
	if err != nil {
		t.Fatal(err)
	}
	if len(census) != 5 {
		t.Fatalf("census systems = %d", len(census))
	}
	for name, c := range census {
		if c.Workloads == 0 || c.Fences == 0 {
			t.Errorf("%s: empty census %+v", name, c)
		}
		// §3.2: small in-flight sets for metadata ops (average ~3, max ~10;
		// we accept the same order of magnitude).
		if c.AvgInFlight() > 8 {
			t.Errorf("%s: avg in-flight %f too large for metadata ops", name, c.AvgInFlight())
		}
		if c.MaxInFlight > 20 {
			t.Errorf("%s: max in-flight %d too large", name, c.MaxInFlight)
		}
	}
}

func TestRunSuiteCleanOnFixedSeq1Sample(t *testing.T) {
	// Fixed NOVA over the first 20 seq-1 workloads with no replay cap (the
	// seven-system table runs at cap 2): no violations.
	sys, _ := SystemByName("nova")
	cfg := Options{Bugs: bugs.None(), Cap: 0}.ConfigFor(sys)
	c, viol, err := Run(context.Background(), cfg, ace.Seq1()[:20])
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range viol {
		t.Errorf("false positive: %s", v)
	}
	if c.StatesChecked == 0 {
		t.Fatal("no states checked")
	}
}

func TestCurveAndRender(t *testing.T) {
	pts := []DiscoveryPoint{
		{Bug: 1, Found: true, Elapsed: 10},
		{Bug: 2, Found: true, Elapsed: 5},
		{Bug: 3, Found: false},
	}
	c := Curve(pts)
	if len(c) != 2 || c[0].Bugs != 1 || c[1].Cumulative != 15 {
		t.Fatalf("curve = %+v", c)
	}
	out := RenderFig3(c, c)
	if !strings.Contains(out, "ACE") || !strings.Contains(out, "Fuzzer") {
		t.Fatalf("render = %s", out)
	}
}

func TestSystemLookup(t *testing.T) {
	if _, err := SystemByName("nova"); err != nil {
		t.Fatal(err)
	}
	if _, err := SystemByName("nope"); err == nil {
		t.Fatal("unknown system accepted")
	}
	if len(Systems()) != 7 {
		t.Fatalf("systems = %d, want 7 (as §4.1)", len(Systems()))
	}
	info, _ := bugs.Lookup(bugs.WriteNotSync)
	sys, err := BugSystem(info)
	if err != nil || sys.Name != "pmfs" {
		t.Fatalf("BugSystem = %v, %v", sys.Name, err)
	}
}

func TestWeakSystemsCleanOnDaxSample(t *testing.T) {
	for _, name := range []string{"ext4-dax", "xfs-dax"} {
		sys, _ := SystemByName(name)
		cfg := core.Config{NewFS: sys.Factory(bugs.None())}
		_, viol, err := Run(context.Background(), cfg, ace.Seq1Dax()[:30])
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range viol {
			t.Errorf("%s false positive: %s", name, v)
		}
	}
}
