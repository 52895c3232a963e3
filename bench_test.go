// Package chipmunk's root benchmark harness regenerates the measurable
// artifacts of the paper's evaluation (see DESIGN.md's experiment index):
// Table 1 (bug detection), Figure 3 (ACE vs fuzzer discovery cost), the
// §4.3 suite runtimes, Observation 2's fix overheads, Observation 7's
// replay-cap sweep, and the §3.2/§6.2 tracing ablations. Custom metrics
// carry the paper-comparable numbers (bugs found, crash states, simulated
// nanoseconds); wall-clock ns/op carries the framework cost.
package chipmunk_test

import (
	"context"
	"testing"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
	"chipmunk/internal/fs/nova"
	"chipmunk/internal/fuzz"
	"chipmunk/internal/harness"
	"chipmunk/internal/obs"
	"chipmunk/internal/persist"
	"chipmunk/internal/pmem"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

// BenchmarkTable1_AllBugs regenerates Table 1: every unique bug detected by
// the generic checker on its targeted workloads.
func BenchmarkTable1_AllBugs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunTable1(harness.DetectOptions{})
		if err != nil {
			b.Fatal(err)
		}
		found := 0
		states := 0
		for _, r := range rows {
			if r.Detection.Found {
				found++
			}
			states += r.Detection.StatesChecked
		}
		b.ReportMetric(float64(found), "bugs-found")
		b.ReportMetric(float64(states), "crash-states")
		if found != 23 {
			b.Fatalf("found %d/23 bugs", found)
		}
	}
}

// BenchmarkFig3_ACEDiscovery measures the systematic generator's cost to
// find a representative bug (Figure 3's fast ACE curve): NOVA bug 4 via an
// in-order ACE scan.
func BenchmarkFig3_ACEDiscovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		det, err := harness.DetectWithACE(bugs.NovaRenameInPlaceDelete, 600, harness.DetectOptions{Cap: 2})
		if err != nil {
			b.Fatal(err)
		}
		if !det.Found {
			b.Fatal("ACE did not find bug 4")
		}
		b.ReportMetric(float64(det.Workloads), "workloads-to-bug")
		b.ReportMetric(float64(det.StatesChecked), "crash-states")
	}
}

// BenchmarkFig3_FuzzerDiscovery measures the fuzzer's cost for the same bug
// (Figure 3's slower but more general curve).
func BenchmarkFig3_FuzzerDiscovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		det, err := harness.DetectWithFuzzer(bugs.NovaRenameInPlaceDelete, int64(i)+100, 3000)
		if err != nil {
			b.Fatal(err)
		}
		if !det.Found {
			b.Fatal("fuzzer did not find bug 4 in budget")
		}
		b.ReportMetric(float64(det.Workloads), "execs-to-bug")
		b.ReportMetric(float64(det.StatesChecked), "crash-states")
	}
}

// BenchmarkFig3_FuzzerOnlyBug measures discovery of an ACE-unreachable bug
// (the four bugs the paper's fuzzer alone found, §4.3).
func BenchmarkFig3_FuzzerOnlyBug(b *testing.B) {
	for i := 0; i < b.N; i++ {
		det, err := harness.DetectWithFuzzer(bugs.NTTailNotFenced, int64(i)+7, 3000)
		if err != nil {
			b.Fatal(err)
		}
		if !det.Found {
			b.Fatal("fuzzer did not find bug 17 in budget")
		}
		b.ReportMetric(float64(det.Workloads), "execs-to-bug")
	}
}

// BenchmarkSeq1Suite_* is the §4.3 runtime table: the full ACE seq-1 suite
// against each fixed strong system (paper: under 15 minutes per system on a
// VM; the simulated stack runs it in seconds).
func benchSeq1(b *testing.B, sysName string) {
	sys, err := harness.SystemByName(sysName)
	if err != nil {
		b.Fatal(err)
	}
	suite := ace.Seq1()
	for i := 0; i < b.N; i++ {
		cfg := harness.Options{Bugs: bugs.None(), Cap: 2}.ConfigFor(sys)
		c, viol, err := harness.Run(context.Background(), cfg, suite)
		if err != nil {
			b.Fatal(err)
		}
		if len(viol) != 0 {
			b.Fatalf("false positives: %d", len(viol))
		}
		b.ReportMetric(float64(c.StatesChecked), "crash-states")
	}
}

func BenchmarkSeq1Suite_Nova(b *testing.B)       { benchSeq1(b, "nova") }
func BenchmarkSeq1Suite_NovaFortis(b *testing.B) { benchSeq1(b, "nova-fortis") }
func BenchmarkSeq1Suite_Pmfs(b *testing.B)       { benchSeq1(b, "pmfs") }
func BenchmarkSeq1Suite_Winefs(b *testing.B)     { benchSeq1(b, "winefs") }
func BenchmarkSeq1Suite_Splitfs(b *testing.B)    { benchSeq1(b, "splitfs") }
func BenchmarkSeq1Suite_Ext4Dax(b *testing.B) {
	sys, _ := harness.SystemByName("ext4-dax")
	suite := ace.Seq1Dax()
	for i := 0; i < b.N; i++ {
		cfg := harness.Options{Bugs: bugs.None(), Cap: 2}.ConfigFor(sys)
		c, viol, err := harness.Run(context.Background(), cfg, suite)
		if err != nil {
			b.Fatal(err)
		}
		if len(viol) != 0 {
			b.Fatalf("false positives: %d", len(viol))
		}
		b.ReportMetric(float64(c.StatesChecked), "crash-states")
	}
}

// BenchmarkObs2_RenameFix regenerates Observation 2's rename
// microbenchmark: NOVA before vs after fixing bugs 4 and 5 (paper: the fix
// costs 25% on an Optane rename loop). The simulated-PM nanoseconds carry
// the comparison.
func BenchmarkObs2_RenameFix(b *testing.B) {
	run := func(b *testing.B, set bugs.Set) {
		dev := pmem.NewDevice(4 << 20)
		f := nova.New(persist.New(dev), set)
		if err := f.Mkfs(); err != nil {
			b.Fatal(err)
		}
		fd, _ := f.Create("/target")
		f.Pwrite(fd, []byte("content"), 0)
		f.Close(fd)
		dev.ResetStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fd, _ := f.Create("/tmp")
			f.Pwrite(fd, []byte("new content"), 0)
			f.Close(fd)
			if err := f.Rename("/tmp", "/target"); err != nil {
				b.Fatal(err)
			}
		}
		// The paper-comparable numbers come from the obs snapshot: the
		// device's cost model feeds the collector, and the benchmark reads
		// the merged PM counters back instead of poking Stats directly.
		col := obs.New()
		dev.Stats().Feed(col)
		snap := col.Snapshot()
		b.ReportMetric(float64(snap.PM.SimNanos)/float64(b.N), "sim-ns/op")
		b.ReportMetric(float64(snap.PM.Fences)/float64(b.N), "fences/op")
	}
	b.Run("published", func(b *testing.B) {
		run(b, bugs.Of(bugs.NovaRenameInPlaceDelete, bugs.NovaRenameOldSurvives))
	})
	b.Run("fixed", func(b *testing.B) { run(b, bugs.None()) })
}

// BenchmarkObs2_LinkFix regenerates the link microbenchmark (paper: the fix
// is 7% FASTER because the in-place path re-read the log from media).
func BenchmarkObs2_LinkFix(b *testing.B) {
	run := func(b *testing.B, set bugs.Set) {
		dev := pmem.NewDevice(4 << 20)
		f := nova.New(persist.New(dev), set)
		if err := f.Mkfs(); err != nil {
			b.Fatal(err)
		}
		fd, _ := f.Create("/target")
		f.Pwrite(fd, []byte("linked file content"), 0)
		f.Close(fd)
		dev.ResetStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := f.Link("/target", "/l"); err != nil {
				b.Fatal(err)
			}
			if err := f.Unlink("/l"); err != nil {
				b.Fatal(err)
			}
		}
		col := obs.New()
		dev.Stats().Feed(col)
		b.ReportMetric(float64(col.Snapshot().PM.SimNanos)/float64(b.N), "sim-ns/op")
	}
	b.Run("published", func(b *testing.B) { run(b, bugs.Of(bugs.NovaLinkCountEarly)) })
	b.Run("fixed", func(b *testing.B) { run(b, bugs.None()) })
}

// BenchmarkObs7_CapSweep regenerates Observation 7: the crash-state count
// and detection power at replay caps 1, 2, 5, and exhaustive.
func BenchmarkObs7_CapSweep(b *testing.B) {
	w := workload.Workload{Name: "cap-sweep", Ops: []workload.Op{
		{Kind: workload.OpCreat, Path: "/f0", FDSlot: -1},
		{Kind: workload.OpPwrite, Path: "/f0", FDSlot: -1, Off: 0, Size: 16384, Seed: 1},
		{Kind: workload.OpRename, Path: "/f0", Path2: "/f1"},
	}}
	for _, tc := range []struct {
		name string
		cap  int
	}{{"cap1", 1}, {"cap2", 2}, {"cap5", 5}, {"exhaustive", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := core.Config{
				NewFS: func(pm *persist.PM) vfs.FS {
					return nova.New(pm, bugs.Of(bugs.NovaRenameInPlaceDelete))
				},
				Cap: tc.cap,
			}
			for i := 0; i < b.N; i++ {
				res, err := core.RunContext(context.Background(), cfg, w)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Buggy() {
					b.Fatal("bug 4 not found")
				}
				b.ReportMetric(float64(res.StatesChecked), "crash-states")
			}
		})
	}
}

// BenchmarkAblation_PerStoreTracing is the §6.2 comparison in miniature:
// function-level interception (Chipmunk) vs recording every store
// (Yat/Vinter-style). The metric of interest is trace events per workload.
func BenchmarkAblation_PerStoreTracing(b *testing.B) {
	w := workload.Workload{Name: "trace-ablation", Ops: []workload.Op{
		{Kind: workload.OpCreat, Path: "/f0", FDSlot: -1},
		{Kind: workload.OpPwrite, Path: "/f0", FDSlot: -1, Off: 0, Size: 4096, Seed: 1},
		{Kind: workload.OpRename, Path: "/f0", Path2: "/f1"},
	}}
	for _, tc := range []struct {
		name  string
		store bool
	}{{"function-level", false}, {"per-store", true}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := core.Config{
				NewFS:       func(pm *persist.PM) vfs.FS { return nova.New(pm, bugs.None()) },
				TraceStores: tc.store,
			}
			for i := 0; i < b.N; i++ {
				res, err := core.RunContext(context.Background(), cfg, w)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.StoreEntries), "store-events")
				b.ReportMetric(float64(res.Fences), "fences")
			}
		})
	}
}

// BenchmarkAblation_UndoLogVsCopy compares the paper's undo-log approach to
// checker-state restoration against whole-image copying (§3.3: Chipmunk
// rolls back checker mutations with an undo log because its images are
// 128 MB; ours are small enough that copying competes).
func BenchmarkAblation_UndoLogVsCopy(b *testing.B) {
	const imgSize = 1 << 20
	img := make([]byte, imgSize)
	b.Run("undo-log", func(b *testing.B) {
		td := pmem.NewTrackingDevice(img)
		buf := []byte("mutation")
		for i := 0; i < b.N; i++ {
			for off := int64(0); off < 64*1024; off += 4096 {
				td.Store(off, buf)
			}
			td.Rollback()
		}
	})
	b.Run("full-copy", func(b *testing.B) {
		buf := []byte("mutation")
		for i := 0; i < b.N; i++ {
			cp := append([]byte(nil), img...)
			dev := pmem.FromImage(cp)
			for off := int64(0); off < 64*1024; off += 4096 {
				dev.Store(off, buf)
			}
		}
	})
}

// BenchmarkAblation_CheckPhases isolates the cost of the checker's phases:
// full checks vs. skipping the usability probes (which mount-mutate every
// crash state) vs. post-only crash points (the disk-era policy).
func BenchmarkAblation_CheckPhases(b *testing.B) {
	w := workload.Workload{Name: "phases", Ops: []workload.Op{
		{Kind: workload.OpCreat, Path: "/f0", FDSlot: -1},
		{Kind: workload.OpPwrite, Path: "/f0", FDSlot: -1, Off: 0, Size: 1024, Seed: 1},
		{Kind: workload.OpMkdir, Path: "/d0"},
		{Kind: workload.OpRename, Path: "/f0", Path2: "/d0/f1"},
	}}
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{
		{"full", core.Config{}},
		{"no-usability", core.Config{SkipUsability: true}},
		{"post-only", core.Config{PostOnly: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := tc.cfg
			cfg.NewFS = func(pm *persist.PM) vfs.FS { return nova.New(pm, bugs.None()) }
			for i := 0; i < b.N; i++ {
				res, err := core.RunContext(context.Background(), cfg, w)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.StatesChecked), "crash-states")
			}
		})
	}
}

// BenchmarkAblation_VinterReadFilter measures the Vinter-style
// recovery-read-set heuristic (§6.2): crash states and filtered writes with
// the heuristic on and off, on a data-heavy workload where it matters.
func BenchmarkAblation_VinterReadFilter(b *testing.B) {
	w := workload.Workload{Name: "vinter", Ops: []workload.Op{
		{Kind: workload.OpCreat, Path: "/f0", FDSlot: -1},
		{Kind: workload.OpPwrite, Path: "/f0", FDSlot: -1, Off: 0, Size: 12288, Seed: 1},
		{Kind: workload.OpRename, Path: "/f0", Path2: "/f1"},
		{Kind: workload.OpTruncate, Path: "/f1", Size: 100},
	}}
	for _, tc := range []struct {
		name   string
		filter bool
	}{{"unfiltered", false}, {"read-set-filter", true}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := core.Config{
				NewFS:        func(pm *persist.PM) vfs.FS { return nova.New(pm, bugs.None()) },
				VinterFilter: tc.filter,
			}
			for i := 0; i < b.N; i++ {
				res, err := core.RunContext(context.Background(), cfg, w)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.StatesChecked), "crash-states")
				b.ReportMetric(float64(res.FilteredWrites), "filtered-writes")
			}
		})
	}
}

// BenchmarkEngineThroughput measures raw crash-state checking speed, the
// number the §4.3 runtimes scale with.
func BenchmarkEngineThroughput(b *testing.B) {
	w := workload.Workload{Name: "throughput", Ops: []workload.Op{
		{Kind: workload.OpCreat, Path: "/f0", FDSlot: -1},
		{Kind: workload.OpPwrite, Path: "/f0", FDSlot: -1, Off: 0, Size: 1024, Seed: 1},
		{Kind: workload.OpRename, Path: "/f0", Path2: "/f1"},
	}}
	col := obs.New()
	cfg := core.Config{
		NewFS: func(pm *persist.PM) vfs.FS { return nova.New(pm, bugs.None()) },
		Obs:   col,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunContext(context.Background(), cfg, w); err != nil {
			b.Fatal(err)
		}
	}
	snap := col.Snapshot()
	b.ReportMetric(float64(snap.Count(obs.CtrStatesChecked))/b.Elapsed().Seconds(), "states/sec")
	b.ReportMetric(float64(snap.Count(obs.CtrFences))/float64(b.N), "fences/op")
}

// BenchmarkObsOverhead quantifies what the observability hooks cost the
// engine's hot path. "off" leaves Config.Obs nil — every hook is a
// nil-receiver no-op and the engine never reads the clock; "on" attaches a
// collector and pays the clock reads and atomic adds. The zero-allocation
// claim for the disabled path is asserted exactly by TestDisabledSinkAllocs
// in internal/obs.
func BenchmarkObsOverhead(b *testing.B) {
	w := workload.Workload{Name: "obs-overhead", Ops: []workload.Op{
		{Kind: workload.OpCreat, Path: "/f0", FDSlot: -1},
		{Kind: workload.OpPwrite, Path: "/f0", FDSlot: -1, Off: 0, Size: 16384, Seed: 1},
		{Kind: workload.OpRename, Path: "/f0", Path2: "/f1"},
	}}
	for _, tc := range []struct {
		name    string
		enabled bool
	}{{"off", false}, {"on", true}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := core.Config{
				NewFS: func(pm *persist.PM) vfs.FS { return nova.New(pm, bugs.None()) },
				Cap:   0,
			}
			if tc.enabled {
				cfg.Obs = obs.New()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunContext(context.Background(), cfg, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFuzzerThroughput measures fuzzing executions per second,
// comparable to the paper's 270-CPU-hour campaigns in rate terms.
func BenchmarkFuzzerThroughput(b *testing.B) {
	cfg := core.Config{
		NewFS: func(pm *persist.PM) vfs.FS { return nova.New(pm, bugs.None()) },
		Cap:   2,
		Obs:   obs.New(),
	}
	fz := fuzz.New(cfg, 1, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fz.Step(); err != nil {
			b.Fatal(err)
		}
	}
	// The campaign totals come back through the fuzzer's merged snapshot.
	b.ReportMetric(float64(fz.ObsTotals.Count(obs.CtrStatesChecked))/b.Elapsed().Seconds(), "states/sec")
}
