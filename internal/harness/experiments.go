package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
	"chipmunk/internal/workload"
)

// --- Table 1: the bug-detection matrix -----------------------------------

// Table1Row pairs a bug with its detection outcome.
type Table1Row struct {
	Bug       bugs.Info
	Detection Detection
}

// RunTable1 verifies every Table 1 bug with its targeted workloads and
// renders the matrix.
func RunTable1(cfg core.Config) ([]Table1Row, error) {
	var rows []Table1Row
	for _, info := range bugs.All() {
		det, err := DetectWithTargeted(info.ID, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{Bug: info, Detection: det})
	}
	return rows, nil
}

// RenderTable1 formats the matrix like the paper's Table 1, with the
// detection outcome appended.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-3s %-12s %-50s %-34s %-6s %-10s %s\n",
		"Bug", "File system", "Consequence", "Affected system calls", "Type", "Detected", "Detected as")
	fmt.Fprintln(&b, strings.Repeat("-", 130))
	for _, r := range rows {
		found := "NO"
		as := "-"
		if r.Detection.Found {
			found = "yes"
			as = fmt.Sprintf("%s (%s)", r.Detection.Kind, r.Detection.Phase)
		}
		fmt.Fprintf(&b, "%-3d %-12s %-50s %-34s %-6s %-10s %s\n",
			r.Bug.ID, r.Bug.FileSystems[0], r.Bug.Consequence,
			strings.Join(r.Bug.Syscalls, ", "), r.Bug.Type, found, as)
	}
	return b.String()
}

// --- Table 2: observations ------------------------------------------------

// Table2 holds the measured observation data.
type Table2 struct {
	LogicBugs      []bugs.ID
	InPlaceBugs    []bugs.ID
	RecoveryBugs   []bugs.ID
	ResilienceBugs []bugs.ID
	// MidSyscallMeasured: bugs invisible when crash points are restricted
	// to syscall boundaries — measured, not read from the registry.
	MidSyscallMeasured []bugs.ID
	// MinWritesMeasured: for mid-syscall bugs, the smallest replay cap that
	// exposes them (Observation 7).
	MinWritesMeasured map[bugs.ID]int
	// ShortWorkload: all bugs reproduce on <= 3-op core workloads by
	// construction of the targeted set; recorded for the rendering.
	ShortWorkload []bugs.ID
}

// RunTable2 measures the Table 2 observations empirically.
func RunTable2() (*Table2, error) {
	t2 := &Table2{MinWritesMeasured: map[bugs.ID]int{}}
	for _, info := range bugs.All() {
		if info.Type == bugs.Logic {
			t2.LogicBugs = append(t2.LogicBugs, info.ID)
		}
		if info.InPlaceUpdate {
			t2.InPlaceBugs = append(t2.InPlaceBugs, info.ID)
		}
		if info.RecoveryRebuil {
			t2.RecoveryBugs = append(t2.RecoveryBugs, info.ID)
		}
		if info.Resilience {
			t2.ResilienceBugs = append(t2.ResilienceBugs, info.ID)
		}
		t2.ShortWorkload = append(t2.ShortWorkload, info.ID)

		// Measure the mid-syscall requirement.
		postOnly, err := DetectWithTargeted(info.ID, core.Config{PostOnly: true})
		if err != nil {
			return nil, err
		}
		if !postOnly.Found {
			t2.MidSyscallMeasured = append(t2.MidSyscallMeasured, info.ID)
			// Measure the smallest sufficient replay cap.
			for cap := 1; cap <= 3; cap++ {
				det, err := DetectWithTargeted(info.ID, core.Config{Cap: cap})
				if err != nil {
					return nil, err
				}
				if det.Found {
					t2.MinWritesMeasured[info.ID] = cap
					break
				}
			}
		}
	}
	return t2, nil
}

func idList(ids []bugs.ID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%d", id)
	}
	return strings.Join(parts, ", ")
}

// Render formats the measured Table 2.
func (t2 *Table2) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-72s %s\n", "Observation", "Associated bugs (measured)")
	fmt.Fprintln(&b, strings.Repeat("-", 110))
	fmt.Fprintf(&b, "%-72s %s\n", "Many bugs are logic/design issues, not PM programming errors.", idList(t2.LogicBugs))
	fmt.Fprintf(&b, "%-72s %s\n", "The complexity of performing in-place updates leads to bugs.", idList(t2.InPlaceBugs))
	fmt.Fprintf(&b, "%-72s %s\n", "Recovery related to rebuilding in-DRAM state is a source of bugs.", idList(t2.RecoveryBugs))
	fmt.Fprintf(&b, "%-72s %s\n", "Complex resilience features can introduce crash consistency bugs.", idList(t2.ResilienceBugs))
	fmt.Fprintf(&b, "%-72s %s\n", "Many can only be exposed by simulating crashes during system calls.", idList(t2.MidSyscallMeasured))
	fmt.Fprintf(&b, "%-72s %s\n", "Short workloads were sufficient to expose many crash consistency bugs.", idList(t2.ShortWorkload))
	one, two := 0, 0
	for _, c := range t2.MinWritesMeasured {
		switch c {
		case 1:
			one++
		case 2:
			two++
		}
	}
	fmt.Fprintf(&b, "%-72s %d bugs with 1 write, %d with 2\n",
		"Many bugs are exposed by replaying a few small writes.", one, two)
	return b.String()
}

// --- Figure 3: cumulative discovery time, ACE vs fuzzer -------------------

// DiscoveryPoint is one bug's first detection by a generator.
type DiscoveryPoint struct {
	Bug       bugs.ID
	Found     bool
	Workloads int
	States    int
	Elapsed   time.Duration
}

// Fig3ACE measures, per bug, how long the systematic ACE scan takes to find
// it (maxPerBug bounds the scan; unreachable bugs exhaust the budget).
func Fig3ACE(maxPerBug int, cfg core.Config) ([]DiscoveryPoint, error) {
	var out []DiscoveryPoint
	for _, info := range bugs.All() {
		det, err := DetectWithACE(info.ID, maxPerBug, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, DiscoveryPoint{
			Bug: info.ID, Found: det.Found, Workloads: det.Workloads,
			States: det.StatesChecked, Elapsed: det.Elapsed,
		})
	}
	return out, nil
}

// Fig3Fuzz measures per-bug discovery with the fuzzer.
func Fig3Fuzz(seed int64, maxExecs int, cfg core.Config) ([]DiscoveryPoint, error) {
	var out []DiscoveryPoint
	for _, info := range bugs.All() {
		det, err := DetectWithFuzzer(info.ID, seed+int64(info.ID), maxExecs, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, DiscoveryPoint{
			Bug: info.ID, Found: det.Found, Workloads: det.Workloads,
			States: det.StatesChecked, Elapsed: det.Elapsed,
		})
	}
	return out, nil
}

// Curve turns per-bug discovery points into the cumulative Figure 3 series:
// (bugs found, cumulative time), ordered by discovery time.
func Curve(points []DiscoveryPoint) []struct {
	Bugs       int
	Cumulative time.Duration
} {
	var found []DiscoveryPoint
	for _, p := range points {
		if p.Found {
			found = append(found, p)
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].Elapsed < found[j].Elapsed })
	out := make([]struct {
		Bugs       int
		Cumulative time.Duration
	}, len(found))
	var cum time.Duration
	for i, p := range found {
		cum += p.Elapsed
		out[i].Bugs = i + 1
		out[i].Cumulative = cum
	}
	return out
}

// RenderFig3 formats the two curves side by side.
func RenderFig3(aceCurve, fuzzCurve []struct {
	Bugs       int
	Cumulative time.Duration
}) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-16s %-16s\n", "#bugs", "ACE cum. time", "Fuzzer cum. time")
	fmt.Fprintln(&b, strings.Repeat("-", 42))
	n := len(aceCurve)
	if len(fuzzCurve) > n {
		n = len(fuzzCurve)
	}
	for i := 0; i < n; i++ {
		a, f := "-", "-"
		if i < len(aceCurve) {
			a = aceCurve[i].Cumulative.String()
		}
		if i < len(fuzzCurve) {
			f = fuzzCurve[i].Cumulative.String()
		}
		fmt.Fprintf(&b, "%-6d %-16s %-16s\n", i+1, a, f)
	}
	return b.String()
}

// --- §3.2 census: in-flight writes and suite statistics -------------------

// Census is the aggregate of a suite's engine runs (see core.Census).
type Census = core.Census

// InFlightCensus measures the average and maximum in-flight write counts
// for metadata operations across the strong fixed systems — the §3.2
// numbers (paper: average 3, maximum 10).
func InFlightCensus() (map[string]*Census, error) {
	suite := metadataSeq1()
	out := map[string]*Census{}
	for _, sys := range Systems() {
		if sys.Weak {
			continue
		}
		cfg := Options{Bugs: bugs.None(), Cap: 2}.ConfigFor(sys)
		c, _, err := Run(context.Background(), cfg, suite)
		if err != nil {
			return nil, err
		}
		out[sys.Name] = c
	}
	return out, nil
}

// metadataSeq1 selects the seq-1 workloads whose core op is metadata.
func metadataSeq1() []workload.Workload {
	var out []workload.Workload
	for i, v := range ace.Variants() {
		switch v.Op.Kind {
		case workload.OpCreat, workload.OpMkdir, workload.OpLink,
			workload.OpUnlink, workload.OpRename, workload.OpRmdir, workload.OpRemove:
			out = append(out, ace.Seq1()[i])
		}
	}
	return out
}
