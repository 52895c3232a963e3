// Command experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index):
//
//	experiments table1            # Table 1: the 23-bug detection matrix
//	experiments table2            # Table 2: observations, measured
//	experiments fig3              # Figure 3: ACE vs fuzzer discovery curves
//	experiments counts            # §3.4.1 workload counts
//	experiments inflight          # §3.2 in-flight write census
//	experiments coalesce          # §3.2 write-coalescing state explosion
//	experiments vinter            # §6.2 Vinter read-set filter, off vs on
//	experiments perf              # §5.1 Obs 2: rename/link fix overheads
//	experiments all               # everything
//
// Flags: -cap bounds replayed subset sizes for the detection runs
// (0 = exhaustive); -stats, -journal and -debug-addr are chipmunk's.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
	"chipmunk/internal/fs/nova"
	"chipmunk/internal/harness"
	"chipmunk/internal/persist"
	"chipmunk/internal/pmem"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

var (
	cli     = harness.BindObsCLI(flag.CommandLine)
	capFlag = flag.Int("cap", 0, "max in-flight writes replayed per crash state in Table 1's detection runs (0 = exhaustive)")

	// inst carries the -stats/-journal/-debug-addr plumbing shared by every
	// experiment's engine runs; resolved once in main, nil-safe throughout.
	inst *harness.Instrumentation
)

func main() {
	flag.Parse()
	what := "all"
	if flag.NArg() > 0 {
		what = flag.Arg(0)
	}
	var err error
	inst, err = cli.Instrument()
	fatalIfErr(err)
	inst.EmitRun("experiments/"+what, 0)
	start := time.Now()
	// First Ctrl-C stops between experiments; a second force-exits (130).
	ctx, stop := harness.SignalContext(context.Background())
	defer stop()
	run := map[string]func() error{
		"table1":   table1,
		"table2":   table2,
		"fig3":     fig3,
		"counts":   counts,
		"inflight": inflight,
		"coalesce": coalesce,
		"vinter":   vinter,
		"perf":     perf,
	}
	if what == "all" {
		for _, name := range []string{"counts", "table1", "table2", "inflight", "coalesce", "vinter", "perf", "fig3"} {
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "experiments: interrupted")
				os.Exit(130)
			}
			if err := run[name](); err != nil {
				fatal(err)
			}
		}
		finish(start)
		return
	}
	fn, ok := run[what]
	if !ok {
		fatal(fmt.Errorf("unknown experiment %q", what))
	}
	if err := fn(); err != nil {
		fatal(err)
	}
	finish(start)
}

// finish prints the -stats breakdown (when requested) and flushes the
// instrumentation before exit.
func finish(start time.Time) {
	if s := inst.RenderStats(time.Since(start)); s != "" {
		fmt.Printf("\n%s", s)
	}
	fatalIfErr(inst.Close())
}

// detectConfig builds the engine Config every detection-based experiment
// shares, with the instrumentation wired in.
func detectConfig(cap int) core.Config {
	return core.Config{Cap: cap, Obs: inst.Col, Tracer: inst.Tracer}
}

func fatalIfErr(err error) {
	if err != nil {
		fatal(err)
	}
}

func header(s string) {
	fmt.Printf("\n================ %s ================\n\n", s)
}

func table1() error {
	header("Table 1 — bugs found by Chipmunk (targeted workloads, exhaustive replay)")
	rows, err := harness.RunTable1(detectConfig(*capFlag))
	if err != nil {
		return err
	}
	fmt.Print(harness.RenderTable1(rows))
	found := 0
	for _, r := range rows {
		if r.Detection.Found {
			found++
		}
	}
	fmt.Printf("\n%d of %d unique bugs detected (paper: 23/23)\n", found, len(rows))
	return nil
}

func table2() error {
	header("Table 2 — observations and associated bugs (measured)")
	t2, err := harness.RunTable2()
	if err != nil {
		return err
	}
	fmt.Print(t2.Render())
	return nil
}

func fig3() error {
	header("Figure 3 — cumulative time to find bugs: ACE vs fuzzer")
	fmt.Println("running per-bug ACE scans (bounded at 600 workloads/bug)...")
	acePts, err := harness.Fig3ACE(600, detectConfig(2))
	if err != nil {
		return err
	}
	fmt.Println("running per-bug fuzzer campaigns (bounded at 1500 execs/bug)...")
	fuzzPts, err := harness.Fig3Fuzz(42, 1500, detectConfig(2))
	if err != nil {
		return err
	}
	aceFound, fuzzFound := 0, 0
	for _, p := range acePts {
		if p.Found {
			aceFound++
		}
	}
	for _, p := range fuzzPts {
		if p.Found {
			fuzzFound++
		}
	}
	fmt.Printf("\nACE found %d/23 bugs (paper: 19); fuzzer found %d/23 (paper: 23)\n\n",
		aceFound, fuzzFound)
	fmt.Print(harness.RenderFig3(harness.Curve(acePts), harness.Curve(fuzzPts)))

	fmt.Println("\nper-bug detail (workloads/execs to first detection):")
	sort.Slice(acePts, func(i, j int) bool { return acePts[i].Bug < acePts[j].Bug })
	for i, p := range acePts {
		fz := fuzzPts[i]
		aceCol := "not found (fuzzer-only)"
		if p.Found {
			aceCol = fmt.Sprintf("%4d workloads, %8v", p.Workloads, p.Elapsed.Round(time.Millisecond))
		}
		fzCol := "not found in budget"
		if fz.Found {
			fzCol = fmt.Sprintf("%4d execs, %8v", fz.Workloads, fz.Elapsed.Round(time.Millisecond))
		}
		fmt.Printf("  bug %-3d ACE: %-34s fuzzer: %s\n", p.Bug, aceCol, fzCol)
	}
	return nil
}

func counts() error {
	header("§3.4.1 — ACE workload counts")
	fmt.Printf("seq-1 (PM mode):          %6d   (paper: 56)\n", len(ace.Seq1()))
	fmt.Printf("seq-2 (PM mode):          %6d   (paper: 3136)\n", len(ace.Seq2()))
	fmt.Printf("seq-3 metadata:           %6d   (paper: 50650; ours uses a %d-variant metadata space)\n",
		len(ace.Seq3Metadata()), ace.MetadataVariantCount())
	fmt.Printf("seq-1 (DAX mode):         %6d   (paper: 419; ours appends fsync/sync variants)\n", len(ace.Seq1Dax()))
	return nil
}

func inflight() error {
	header("§3.2 — in-flight writes during metadata operations")
	census, err := harness.InFlightCensus()
	if err != nil {
		return err
	}
	names := make([]string, 0, len(census))
	for n := range census {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-12s %-10s %-12s %-12s %-10s\n", "system", "workloads", "fences", "avg-inflight", "max")
	for _, n := range names {
		c := census[n]
		fmt.Printf("%-12s %-10d %-12d %-12.2f %-10d\n", n, c.Workloads, c.Fences, c.AvgInFlight(), c.MaxInFlight)
	}
	fmt.Println("\npaper: average 3, maximum 10 across the tested systems")
	return nil
}

func coalesce() error {
	header("§3.2 — function-level coalescing vs per-store tracing (1 KiB write)")
	w := workload.Workload{Name: "coalesce", Ops: []workload.Op{
		{Kind: workload.OpCreat, Path: "/f0", FDSlot: -1},
		{Kind: workload.OpPwrite, Path: "/f0", FDSlot: -1, Off: 0, Size: 1024, Seed: 1},
	}}
	sys, _ := harness.SystemByName("nova")
	cfg := harness.Options{Bugs: bugs.None(), Obs: inst.Col, Tracer: inst.Tracer}.ConfigFor(sys)
	cfg.TraceStores = true
	res, err := core.RunContext(context.Background(), cfg, w)
	if err != nil {
		return err
	}
	fmt.Printf("durable-intent writes at the busiest fence (function-level units): %d\n", res.MaxInFlight)
	fmt.Printf("plain-store events an instruction-level tracer also records:      %d\n", res.StoreEntries)
	fmt.Printf("crash states Chipmunk checked for the whole workload:             %d\n", res.StatesChecked)
	fmt.Println("\npaper: a 1 KiB write is 128 8-byte stores -> 2^128 states without")
	fmt.Println("coalescing; function-level interception sees it as ONE logical write.")
	return nil
}

func vinter() error {
	header("§6.2 — Vinter-style recovery-read-set filter (fixed NOVA)")
	w := workload.Workload{Name: "vinter", Ops: []workload.Op{
		{Kind: workload.OpCreat, Path: "/f0", FDSlot: -1},
		{Kind: workload.OpPwrite, Path: "/f0", FDSlot: -1, Off: 0, Size: 12288, Seed: 1},
		{Kind: workload.OpRename, Path: "/f0", Path2: "/f1"},
		{Kind: workload.OpTruncate, Path: "/f1", Size: 100},
	}}
	sys, _ := harness.SystemByName("nova")
	fmt.Printf("%-10s %-14s %-16s %s\n", "filter", "crash states", "filtered writes", "violations")
	for _, filter := range []bool{false, true} {
		// Both passes run the one workload: each gets its own trace.
		cfg := harness.Options{Bugs: bugs.None(), Obs: inst.Col,
			Tracer: inst.Tracer.Derive(fmt.Sprintf("vinter filter=%v", filter))}.ConfigFor(sys)
		cfg.VinterFilter = filter
		res, err := core.RunContext(context.Background(), cfg, w)
		if err != nil {
			return err
		}
		name := "off"
		if filter {
			name = "on"
		}
		fmt.Printf("%-10s %-14d %-16d %d\n", name, res.StatesChecked, res.FilteredWrites, len(res.Violations))
	}
	fmt.Println("\nthe filter trades coverage for state count: in-flight writes recovery never reads")
	fmt.Println("leave subset enumeration (paper: why Chipmunk checks more states than Vinter)")
	return nil
}

func perf() error {
	header("§5.1 Obs 2 — cost of fixing the in-place-update bugs (simulated PM time)")
	renameBuggy := renameLoopCost(bugs.Of(bugs.NovaRenameInPlaceDelete, bugs.NovaRenameOldSurvives))
	renameFixed := renameLoopCost(bugs.None())
	fmt.Printf("rename loop, published NOVA (in-place delete): %8d simulated ns/op\n", renameBuggy)
	fmt.Printf("rename loop, fixed NOVA (journalled delete):   %8d simulated ns/op\n", renameFixed)
	fmt.Printf("fix overhead: %+.1f%%   (paper: fixed version 25%% slower on a rename microbenchmark)\n",
		100*float64(renameFixed-renameBuggy)/float64(renameBuggy))

	linkBuggy := linkLoopCost(bugs.Of(bugs.NovaLinkCountEarly))
	linkFixed := linkLoopCost(bugs.None())
	fmt.Printf("\nlink loop, published NOVA (in-place nlink):    %8d simulated ns/op\n", linkBuggy)
	fmt.Printf("link loop, fixed NOVA (journalled):            %8d simulated ns/op\n", linkFixed)
	fmt.Printf("fix overhead: %+.1f%%   (paper: fixed version 7%% FASTER — the in-place check cost a media read)\n",
		100*float64(linkFixed-linkBuggy)/float64(linkBuggy))
	return nil
}

func renameLoopCost(set bugs.Set) int64 {
	dev := pmem.NewDevice(4 << 20)
	f := nova.New(persist.New(dev), set)
	must(f.Mkfs())
	fd, _ := f.Create("/target")
	f.Pwrite(fd, []byte("content"), 0)
	f.Close(fd)
	const iters = 200
	dev.ResetStats()
	for i := 0; i < iters; i++ {
		fd, _ := f.Create("/tmp")
		f.Pwrite(fd, []byte("new content"), 0)
		f.Close(fd)
		must(f.Rename("/tmp", "/target"))
	}
	dev.Stats().Feed(inst.Col)
	return dev.Stats().SimNanos / iters
}

func linkLoopCost(set bugs.Set) int64 {
	dev := pmem.NewDevice(4 << 20)
	f := nova.New(persist.New(dev), set)
	must(f.Mkfs())
	fd, _ := f.Create("/target")
	f.Pwrite(fd, []byte("linked file content"), 0)
	f.Close(fd)
	const iters = 200
	dev.ResetStats()
	for i := 0; i < iters; i++ {
		must(f.Link("/target", "/l"))
		must(f.Unlink("/l"))
	}
	dev.Stats().Feed(inst.Col)
	return dev.Stats().SimNanos / iters
}

func must(err error) {
	if err != nil {
		fatal(err)
	}
}

var _ vfs.FS = (*nova.FS)(nil)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
