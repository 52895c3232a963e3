// Command chipmunk runs Chipmunk crash-consistency test suites against a
// PM file system, like the paper's ACE frontend (§3.4.1):
//
//	chipmunk -fs nova -suite seq1               # developer loop: < seconds
//	chipmunk -fs nova -bugs all -suite seq2     # as-published NOVA, all pairs
//	chipmunk -fs pmfs -bugs 13,16 -suite seq1   # selected injected bugs
//	chipmunk -fs ext4-dax -suite seq1dax        # weak system, fsync-gated
//	chipmunk -fs nova -suite seq2 -j 8          # suite sharded across workers
//
// Distributed campaigns shard the suite across machines (or processes):
//
//	chipmunk -fs nova -suite seq2 -serve :9090 -resume camp.ckpt
//	chipmunk -worker host:9090 -j 4             # on each worker machine
//
// The coordinator leases numbered shards to workers over HTTP/JSON,
// re-dispatches expired leases, credits each shard at most once, and
// appends completed shards to the -resume checkpoint so a killed
// coordinator restarts where it left off. The merged census is
// byte-identical to a serial run of the same suite.
//
// The -bugs flag selects which of the paper's Table 1 bugs are injected:
// "none" (the fixed systems, default), "all" (as published), or a
// comma-separated ID list. -faults turns on pmem fault injection (torn
// stores, bit corruption, media errors) against the sandboxed checker.
// Ctrl-C cancels the run and prints the partial census; a second Ctrl-C
// force-exits. Under -serve, the first Ctrl-C instead stops issuing leases
// and drains in-flight shards to the checkpoint.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"chipmunk/internal/ace"
	"chipmunk/internal/campaign"
	"chipmunk/internal/core"
	"chipmunk/internal/fleet"
	"chipmunk/internal/harness"
	"chipmunk/internal/report"
	"chipmunk/internal/workload"
)

func main() {
	var (
		cli       = harness.BindCLI(flag.CommandLine, harness.CLIDefaults{FS: "nova"})
		suite     = flag.String("suite", "seq1", "workload suite: seq1, seq2, seq3m, seq1dax, seq2dax, kv, kv-smoke")
		max       = flag.Int("max", 0, "stop after N workloads (0 = whole suite)")
		stopOne   = flag.Bool("stop-on-bug", false, "stop at the first violating workload")
		repro     = flag.String("repro", "", "run a single reproducer file (workload.Format syntax) instead of a suite")
		serve     = flag.String("serve", "", "coordinate a distributed campaign on this host:port instead of running locally")
		workerFor = flag.String("worker", "", "join the distributed campaign coordinated at this host:port (spec comes from the coordinator)")
		resume    = flag.String("resume", "", "(with -serve) append completed shards to this checkpoint file and skip the shards it already records")
		shardSize = flag.Int("shard-size", campaign.DefaultShardSize, "(with -serve) workloads per lease")
		leaseTTL  = flag.Duration("lease", campaign.DefaultLeaseTTL, "(with -serve) lease deadline before a shard is re-dispatched")

		shardRetries = flag.Int("shard-retries", campaign.DefaultShardRetries,
			"(with -serve) failed dispatch attempts before a shard is quarantined instead of re-dispatched")
		retryQuar = flag.Bool("retry-quarantined", false,
			"(with -serve -resume) re-run the shards the checkpoint records as quarantined")
		wireFaults = flag.Uint64("wire-faults", 0,
			"(with -serve) seed the deterministic wire-fault injector — chaos testing only (0 = off)")
		shardTimeout = flag.Duration("shard-timeout", campaign.DefaultShardTimeout,
			"(with -worker) watchdog deadline per shard engine call (negative = no watchdog)")
		poisonShard = flag.Int("poison-shard", -1,
			"(with -worker) chaos hook: panic on this shard id to model a crash-looping workload (-1 = off)")

		fuzzMode = flag.Bool("fuzz", false,
			"(with -serve) coordinate a distributed coverage-guided fuzzing soak instead of a suite campaign")
		budget = flag.String("budget", "",
			"(with -serve -fuzz) soak budget: a duration (\"2h\") or a total exec count (\"2000\"; exec budgets make the soak byte-reproducible)")
		fuzzSeed = flag.Int64("fuzz-seed", 1,
			"(with -serve -fuzz) master fuzzing seed; round r runs with RNG stream splitmix64(seed, r)")
		roundExecs = flag.Int("round-execs", fleet.DefaultRoundExecs,
			"(with -serve -fuzz) fuzzing iterations per round lease")
		genRounds = flag.Int("gen-rounds", fleet.DefaultGenRounds,
			"(with -serve -fuzz) rounds per generation (the corpus-fold barrier width)")
	)
	flag.Parse()

	// -app changes the defaults: the KV suite, and (without an explicit
	// -fs) a sweep over every supported file system. -fuzz changes the -cap
	// default to the fuzzer's 2 (the paper's choice for open-ended search).
	fsExplicit, suiteExplicit, capExplicit := false, false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "fs":
			fsExplicit = true
		case "suite":
			suiteExplicit = true
		case "cap":
			capExplicit = true
		}
	})
	if cli.App != "" && !suiteExplicit {
		*suite = "kv"
	}

	if *workerFor != "" {
		runWorker(*workerFor, cli, cli.Jobs, *shardTimeout, *poisonShard)
		return
	}

	opts, err := cli.Options()
	fatalIf(err)
	inst, err := cli.Instrument()
	fatalIf(err)
	defer inst.Close() //nolint:errcheck // re-checked explicitly below
	inst.Apply(&opts)

	if *fuzzMode && *serve == "" {
		fatalIf(errors.New("-fuzz coordinates a distributed soak and needs -serve; for local fuzzing use chipmunkfuzz"))
	}

	if *serve != "" {
		if *repro != "" {
			fatalIf(errors.New("-serve shards a named suite; -repro runs locally"))
		}
		sys, _, err := opts.Resolve()
		fatalIf(err)
		// The removed -workers flag defaulted to 1, and the campaign ID hashes
		// the spec: keeping the 1 keeps -resume checkpoints written by earlier
		// builds valid.
		const specWorkers = 1
		if *fuzzMode {
			capVal := opts.Cap
			if !capExplicit {
				capVal = 2
			}
			fspec := campaign.Spec{
				FS: cli.FS, Bugs: cli.Bugs,
				Cap: capVal, Workers: specWorkers,
				CheckTimeoutNanos: int64(opts.CheckTimeout),
				ExhaustiveLimit:   opts.ExhaustiveLimit,
				Faults:            cli.Faults, FaultSeed: cli.FaultSeed,
				Stats: cli.Stats,
				App:   cli.App, AppBugs: cli.AppBugs,
				Fuzz: true, FuzzSeed: *fuzzSeed,
				RoundExecs: *roundExecs, GenRounds: *genRounds,
			}
			execs, dur, err := fleet.ParseBudget(*budget)
			fatalIf(err)
			fspec.BudgetExecs, fspec.BudgetNanos = execs, int64(dur)
			runFuzzCoordinator(*serve, fspec, coordinatorKnobs{
				leaseTTL: *leaseTTL, checkpoint: *resume,
				shardRetries: *shardRetries, wireFaultSeed: *wireFaults,
			}, sys, inst, cli)
			return
		}
		cspec := campaign.Spec{
			FS: cli.FS, Bugs: cli.Bugs, Suite: *suite, Max: *max,
			Cap: opts.Cap, Workers: specWorkers,
			CheckTimeoutNanos: int64(opts.CheckTimeout),
			ExhaustiveLimit:   opts.ExhaustiveLimit,
			Faults:            cli.Faults, FaultSeed: cli.FaultSeed,
			Stats: cli.Stats,
			App:   cli.App, AppBugs: cli.AppBugs,
		}
		runCoordinator(*serve, cspec, coordinatorKnobs{
			shardSize: *shardSize, leaseTTL: *leaseTTL, checkpoint: *resume,
			shardRetries: *shardRetries, retryQuarantined: *retryQuar, wireFaultSeed: *wireFaults,
		}, sys, inst, cli, cli.Verbose, cli.OutDir)
		return
	}

	var suiteWs []workload.Workload
	if *repro != "" {
		data, err := os.ReadFile(*repro)
		fatalIf(err)
		w, err := workload.Parse(string(data))
		fatalIf(err)
		if w.Name == "" {
			w.Name = *repro
		}
		suiteWs = []workload.Workload{w}
		*suite = "repro"
	} else {
		suiteWs, err = ace.SuiteByName(*suite)
		fatalIf(err)
	}
	if *max > 0 && *max < len(suiteWs) {
		suiteWs = suiteWs[:*max]
	}

	if cli.App != "" {
		runApp(cli, opts, *suite, suiteWs, fsExplicit, inst)
		return
	}

	sys, cfg, err := opts.Resolve()
	fatalIf(err)

	faultNote := ""
	if cli.Faults {
		faultNote = fmt.Sprintf(", faults on (seed %d)", cli.FaultSeed)
	}
	fmt.Printf("chipmunk: %s (bugs %s), suite %s: %d workloads, cap=%d%s\n",
		sys.Name, opts.Bugs, *suite, len(suiteWs), opts.Cap, faultNote)

	ctx, stop := harness.SignalContext(context.Background())
	defer stop()

	inst.EmitRun(sys.Name, len(suiteWs))
	if addr := inst.Debug.Addr(); addr != "" {
		fmt.Printf("debug listener on http://%s (/debug/vars, /debug/pprof/, /progress)\n", addr)
	}

	runOpts := []harness.Option{harness.WithWorkers(cli.Jobs)}
	if *stopOne {
		runOpts = append(runOpts, harness.WithStopOnFirstBug())
	}
	lastBugs := 0
	runOpts = append(runOpts, harness.WithProgress(func(done, total int, c harness.Census) {
		inst.Progress(done, total, c)
		if cli.Verbose && c.Violations > lastBugs {
			lastBugs = c.Violations
			fmt.Printf("  BUG count now %d after %d/%d workloads\n", c.Violations, done, total)
		}
		if done%500 == 0 {
			fmt.Printf("  ... %d/%d workloads, %d crash states (%d deduped, %d truncated fences, %d quarantined)\n",
				done, total, c.StatesChecked, c.StatesDeduped, c.TruncatedFences,
				len(c.Quarantined)+c.SuppressedQuarantine)
		}
	}))

	census, viol, err := harness.Run(ctx, cfg, suiteWs, runOpts...)
	if err != nil && !errors.Is(err, context.Canceled) {
		fatalIf(err)
	}
	interrupted := errors.Is(err, context.Canceled)
	modeNote := fmt.Sprintf("j=%d", cli.Jobs)
	finish(sys, census, viol, interrupted, false, modeNote, cli.Verbose, cli.OutDir, inst, cli.Journal, nil)
}

// runApp is the -app mode: check the application's crash contract on one
// file system (explicit -fs) or sweep all of them, then render the
// durability report. Exit status matches the suite convention: 1 when the
// contract was violated anywhere, 130 on interrupt.
func runApp(cli *harness.CLIOptions, opts harness.Options, suiteName string,
	suiteWs []workload.Workload, fsExplicit bool, inst *harness.Instrumentation) {
	var systems []harness.System
	if fsExplicit {
		sys, err := harness.SystemByName(cli.FS)
		fatalIf(err)
		systems = []harness.System{sys}
	} else {
		systems = harness.Systems()
	}
	fmt.Printf("chipmunk: app=%s (app-bugs %s), suite %s: %d workloads × %d file systems, cap=%d\n",
		cli.App, cli.AppBugs, suiteName, len(suiteWs), len(systems), opts.Cap)

	ctx, stop := harness.SignalContext(context.Background())
	defer stop()
	inst.EmitRun("app/"+cli.App, len(suiteWs)*len(systems))
	if addr := inst.Debug.Addr(); addr != "" {
		fmt.Printf("debug listener on http://%s (/debug/vars, /debug/pprof/, /progress)\n", addr)
	}

	var runs []report.DurabilityRun
	var all []core.Violation
	interrupted := false
	for _, sys := range systems {
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		cfg := opts.ConfigFor(sys)
		census, viol, err := harness.Run(ctx, cfg, suiteWs,
			harness.WithWorkers(cli.Jobs),
			harness.WithProgress(func(done, total int, c harness.Census) {
				inst.Progress(done, total, c)
			}))
		if errors.Is(err, context.Canceled) {
			interrupted = true
		} else {
			fatalIf(err)
		}
		verdict := "ok"
		if len(viol) > 0 {
			verdict = fmt.Sprintf("%d CONTRACT VIOLATIONS", len(viol))
		}
		fmt.Printf("  %-12s %6d crash states in %8v  %s\n",
			sys.Name, census.StatesChecked, census.Elapsed.Round(time.Millisecond), verdict)
		if cli.Verbose {
			for _, v := range viol {
				fmt.Printf("%s\n", v.String())
			}
		}
		runs = append(runs, report.DurabilityRun{
			FS: sys.Name, Weak: sys.Weak,
			Workloads: census.Workloads, StatesChecked: census.StatesChecked,
			Elapsed: census.Elapsed, Violations: viol,
		})
		all = append(all, viol...)
	}

	if cli.DurabilityReport != "" && len(runs) > 0 {
		fatalIf(report.WriteDurability(cli.DurabilityReport, report.DurabilityReport{
			App: cli.App, AppBugs: cli.AppBugs, Suite: suiteName,
			Cap: opts.Cap, Journal: cli.Journal, Runs: runs,
		}))
		fmt.Printf("\nwrote durability report to %s\n", cli.DurabilityReport)
	}
	clusters := core.Triage(all)
	status := "done"
	if interrupted {
		status = "interrupted (partial sweep)"
	}
	fmt.Printf("%s: %d file systems, %d contract violations in %d clusters\n",
		status, len(runs), len(all), len(clusters))
	fatalIf(inst.Close())
	if len(all) > 0 {
		os.Exit(harness.ExitViolations)
	}
	if interrupted {
		os.Exit(harness.ExitInterrupted)
	}
}

// runWorker is the -worker mode: the engine spec comes from the
// coordinator, so only the local knobs (-j, watchdog, observability flags)
// apply. One handshake decides the mode — a fuzz spec routes to the fleet
// fuzzing worker, a suite spec to the campaign worker — so the worker
// command line is identical for both. A coordinator that was never
// reachable exits with the distinct ExitCoordinatorUnreachable code so
// fleet tooling can retry joining.
func runWorker(addr string, cli *harness.CLIOptions, jobs int, shardTimeout time.Duration, poisonShard int) {
	inst, err := cli.Instrument()
	fatalIf(err)
	ctx, stop := harness.SignalContext(context.Background())
	defer stop()
	logf := func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	}
	info, err := fleet.FetchSpec(ctx, addr, 0)
	switch {
	case err != nil:
	case info.Spec.Fuzz:
		err = fleet.RunWorker(ctx, fleet.WorkerConfig{
			Addr:         addr,
			RoundTimeout: shardTimeout,
			Journal:      inst.Journal,
			Logf:         logf,
			Info:         info,
		})
	default:
		wc := campaign.WorkerConfig{
			Addr:         addr,
			Jobs:         jobs,
			ShardTimeout: shardTimeout,
			Journal:      inst.Journal,
			Logf:         logf,
		}
		if poisonShard >= 0 {
			wc.PoisonShards = []int{poisonShard}
			fmt.Printf("CHAOS: this worker panics on shard %d (-poison-shard)\n", poisonShard)
		}
		err = campaign.RunWorker(ctx, wc)
	}
	stop()
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		fmt.Fprintln(os.Stderr, "chipmunk:", err)
		inst.Close() //nolint:errcheck // already failing
		if errors.Is(err, campaign.ErrCoordinatorGone) {
			os.Exit(harness.ExitCoordinatorUnreachable)
		}
		os.Exit(harness.ExitFatal)
	}
	if inst.Journal != nil {
		fmt.Printf("journal: %d events written\n", inst.Journal.Events())
	}
	fatalIf(inst.Close())
	if interrupted {
		os.Exit(harness.ExitInterrupted)
	}
}

// coordinatorKnobs bundles the -serve flag surface.
type coordinatorKnobs struct {
	shardSize        int
	leaseTTL         time.Duration
	checkpoint       string
	shardRetries     int
	retryQuarantined bool
	wireFaultSeed    uint64
}

// runCoordinator is the -serve mode: shard the suite, lease shards to
// workers, fold the credited results, and report exactly like a local run.
// A campaign that completes with quarantined shards exits ExitDegraded.
func runCoordinator(addr string, cspec campaign.Spec, knobs coordinatorKnobs,
	sys harness.System, inst *harness.Instrumentation,
	cli *harness.CLIOptions, verbose bool, outDir string) {
	coord, err := campaign.NewCoordinator(campaign.CoordinatorConfig{
		Spec:             cspec,
		ShardSize:        knobs.shardSize,
		LeaseTTL:         knobs.leaseTTL,
		ShardRetries:     knobs.shardRetries,
		CheckpointPath:   knobs.checkpoint,
		RetryQuarantined: knobs.retryQuarantined,
		Journal:          inst.Journal,
		Progress: func(done, total int, c harness.Census) {
			inst.Progress(done, total, c)
			fmt.Printf("  ... %d/%d workloads (%d crash states, %d violations)\n",
				done, total, c.StatesChecked, c.Violations)
		},
		Logf: func(format string, args ...any) {
			if verbose {
				fmt.Printf(format+"\n", args...)
			}
		},
	})
	fatalIf(err)
	var handler http.Handler = coord
	var faultStats func() campaign.WireFaultStats
	if knobs.wireFaultSeed != 0 {
		handler, faultStats = campaign.WrapWireFaults(coord, campaign.DefaultWireFaults(knobs.wireFaultSeed))
		fmt.Printf("CHAOS: wire-fault injector armed (seed %d)\n", knobs.wireFaultSeed)
	}
	srv, err := campaign.ListenAndServe(addr, handler)
	fatalIf(err)
	info := coord.Info()
	fmt.Printf("chipmunk coordinator on %s: campaign %s, %s (bugs %s), suite %s: %d workloads in %d shards of %d, fingerprint %s, lease %v\n",
		srv.Addr(), info.CampaignID, sys.Name, cspec.Bugs, cspec.Suite,
		info.Workloads, info.Shards, info.ShardSize, info.SuiteHash, knobs.leaseTTL)
	fmt.Printf("watch the campaign at http://%s%s (JSON: %s, metrics: /debug/metrics)\n",
		srv.Addr(), campaign.PathDash, campaign.PathStatus)
	inst.EmitRun(sys.Name, info.Workloads)
	if daddr := inst.Debug.Addr(); daddr != "" {
		fmt.Printf("debug listener on http://%s (/progress aggregates across workers)\n", daddr)
	}

	// First SIGINT: stop issuing leases, drain in-flight shards to the
	// checkpoint, report the partial census. Second: force-exit 130.
	ctx, stop := harness.SignalContextNotify(context.Background(),
		"interrupt: draining — no new leases; crediting in-flight shards to the checkpoint (interrupt again to force exit)")
	defer stop()
	census, viol, err := coord.Wait(ctx)
	srv.Close() //nolint:errcheck // listener teardown on the way out
	stop()
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		coord.Close() //nolint:errcheck // already failing
		fatalIf(err)
	}
	fatalIf(coord.Close())
	finish(sys, census, viol, interrupted, coord.Degraded(), "distributed", verbose, outDir, inst, cli.Journal, func() {
		st := coord.Stats()
		fmt.Printf("%s\n", st)
		if faultStats != nil {
			fmt.Printf("%s\n", faultStats())
		}
		if outDir == "" {
			return
		}
		quarantined := make([]report.QuarantinedShard, 0)
		for _, q := range coord.Quarantined() {
			quarantined = append(quarantined, report.QuarantinedShard{
				Shard: q.Shard, Start: q.Start, End: q.End,
				Worker: q.Worker, Err: q.Err, Attempts: q.Attempts,
			})
		}
		wr, err := report.NewWriter(outDir)
		fatalIf(err)
		path, err := wr.WriteCampaignSummary(report.CampaignSummary{
			CampaignID: info.CampaignID, FS: sys.Name, Suite: cspec.Suite,
			SuiteHash: info.SuiteHash, Workloads: info.Workloads,
			Shards: info.Shards, ShardSize: info.ShardSize,
			Resumed: st.Resumed, Redispatched: st.Redispatched,
			Duplicates: st.Duplicates, Rejected: st.Rejected,
			BadPayloads: st.BadPayloads, Heartbeats: st.Heartbeats,
			PerWorker:   st.PerWorker,
			Quarantined: quarantined,
			Fingerprint: campaign.Fingerprint(census, viol),
		})
		fatalIf(err)
		fmt.Printf("wrote campaign summary to %s\n", path)
	})
}

// runFuzzCoordinator is the -serve -fuzz mode: coordinate a distributed
// coverage-guided fuzzing soak — round leases, generation-barrier corpus
// folds, minimization leases — and render the deduplicated bug census.
// Exit status follows the campaign convention: degraded 3 (rounds dropped,
// census incomplete), distinct bugs 1, interrupted 130.
func runFuzzCoordinator(addr string, fspec campaign.Spec, knobs coordinatorKnobs,
	sys harness.System, inst *harness.Instrumentation, cli *harness.CLIOptions) {
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Spec:           fspec,
		LeaseTTL:       knobs.leaseTTL,
		Retries:        knobs.shardRetries,
		CheckpointPath: knobs.checkpoint,
		Journal:        inst.Journal,
		Logf: func(format string, args ...any) {
			if cli.Verbose {
				fmt.Printf(format+"\n", args...)
			}
		},
	})
	fatalIf(err)
	var handler http.Handler = coord
	var faultStats func() campaign.WireFaultStats
	if knobs.wireFaultSeed != 0 {
		handler, faultStats = campaign.WrapWireFaults(coord, campaign.DefaultWireFaults(knobs.wireFaultSeed))
		fmt.Printf("CHAOS: wire-fault injector armed (seed %d)\n", knobs.wireFaultSeed)
	}
	srv, err := campaign.ListenAndServe(addr, handler)
	fatalIf(err)
	info := coord.Info()
	spec := info.Spec
	budgetNote := fmt.Sprintf("%d execs", spec.BudgetExecs)
	if spec.BudgetNanos > 0 {
		budgetNote = time.Duration(spec.BudgetNanos).String() + " wall-clock"
	}
	fmt.Printf("chipmunk fuzz coordinator on %s: soak %s, %s (bugs %s), budget %s in rounds of %d (gen width %d), seed %d, fingerprint %s, lease %v\n",
		srv.Addr(), info.CampaignID, sys.Name, spec.Bugs, budgetNote,
		spec.RoundExecs, spec.GenRounds, spec.FuzzSeed, info.SuiteHash, knobs.leaseTTL)
	fmt.Printf("watch the soak at http://%s%s (JSON: %s, metrics: /debug/metrics)\n",
		srv.Addr(), campaign.PathDash, campaign.PathStatus)
	inst.EmitRun(sys.Name, info.Workloads)

	// First SIGINT: stop issuing leases, drain in-flight units to the
	// checkpoint, report the partial census. Second: force-exit 130.
	ctx, stop := harness.SignalContextNotify(context.Background(),
		"interrupt: draining — no new leases; crediting in-flight rounds to the checkpoint (interrupt again to force exit)")
	defer stop()
	census, err := coord.Wait(ctx)
	srv.Close() //nolint:errcheck // listener teardown on the way out
	stop()
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		coord.Close() //nolint:errcheck // already failing
		fatalIf(err)
	}
	fatalIf(coord.Close())
	degraded := coord.Degraded()

	status := "done"
	if interrupted {
		status = "interrupted (partial census)"
	}
	fmt.Printf("\n%s: %d execs in %d rounds, %d crash states checked, corpus %d entries (%d coverage edges)\n",
		status, census.Execs, census.RoundsCredited, census.StatesChecked,
		census.CorpusSize, census.CoverageEdges)
	if census.QuarantinedChecks > 0 {
		fmt.Printf("sandbox: %d crash states quarantined\n", census.QuarantinedChecks)
	}
	st := coord.Stats()
	fmt.Printf("%s\n", st)
	if faultStats != nil {
		fmt.Printf("%s\n", faultStats())
	}
	fmt.Printf("distinct bugs: %d\n", len(census.Clusters))
	for i, b := range census.Clusters {
		note := ""
		if b.Minimized && b.Verified {
			note = ", minimized"
		}
		fmt.Printf("  bug %d: %s on %s — %d reports (prefix %s%s)\n",
			i+1, b.Kind, b.FS, b.Count, b.Prefix, note)
	}
	if cli.OutDir != "" {
		wr, err := report.NewWriter(cli.OutDir)
		fatalIf(err)
		path, err := wr.WriteFuzzCensus(census)
		fatalIf(err)
		fmt.Printf("wrote fuzzing census to %s\n", path)
	}
	if inst.Journal != nil {
		fmt.Printf("journal: %d events written to %s\n", inst.Journal.Events(), cli.Journal)
	}
	fatalIf(inst.Close())
	if degraded {
		os.Exit(harness.ExitDegraded)
	}
	if len(census.Clusters) > 0 {
		os.Exit(harness.ExitViolations)
	}
	if interrupted {
		os.Exit(harness.ExitInterrupted)
	}
}

// finish prints the census summary, triaged clusters, and optional
// reports, closes the instrumentation, and exits with the shared status
// convention (harness.Exit*): degraded campaigns exit 3 — ahead of
// violations, because an incomplete census is the more urgent fact — then
// violations 1, interrupted 130. extra, when non-nil, runs after the census
// block (campaign stats).
func finish(sys harness.System, census *harness.Census, viol []core.Violation,
	interrupted, degraded bool, modeNote string, verbose bool, outDir string,
	inst *harness.Instrumentation, journalPath string, extra func()) {
	clusters := core.Triage(viol)
	status := "done"
	if interrupted {
		status = "interrupted (partial census)"
	}
	fmt.Printf("\n%s: %d workloads, %d crash states (%d deduped, %d truncated fences), %v (%s)\n",
		status, census.Workloads, census.StatesChecked, census.StatesDeduped,
		census.TruncatedFences, census.Elapsed.Round(time.Millisecond), modeNote)
	if n := len(census.Quarantined) + census.SuppressedQuarantine; n > 0 || census.RetriedChecks > 0 {
		fmt.Printf("sandbox: %d states quarantined (%d suppressed past ledger cap), %d transient retries\n",
			n, census.SuppressedQuarantine, census.RetriedChecks)
		if verbose {
			for _, q := range census.Quarantined {
				fmt.Printf("  %s\n", q)
			}
		}
	}
	if extra != nil {
		extra()
	}
	fmt.Printf("reports: %d; triaged clusters: %d\n", len(viol), len(clusters))
	for i, c := range clusters {
		if verbose {
			fmt.Printf("\ncluster %d (%d reports):\n%s\n", i+1, c.Count, c.Representative)
		} else {
			fmt.Printf("cluster %d (%d reports): %s (%s)\n",
				i+1, c.Count, c.Representative.Kind, c.Representative.SysName)
		}
	}
	statsOut := inst.RenderStatsSnapshot(census.Obs, census.Elapsed)
	if statsOut == "" {
		statsOut = inst.RenderStats(census.Elapsed)
	}
	if statsOut != "" {
		fmt.Printf("\n%s", statsOut)
	}
	if inst.Journal != nil {
		fmt.Printf("journal: %d events written to %s\n", inst.Journal.Events(), journalPath)
	}
	writeReports(outDir, sys.Name, clusters, census)
	// os.Exit skips defers: flush the journal and stop the listener first.
	fatalIf(inst.Close())
	if degraded {
		os.Exit(harness.ExitDegraded)
	}
	if len(viol) > 0 {
		os.Exit(harness.ExitViolations)
	}
	if interrupted {
		os.Exit(harness.ExitInterrupted)
	}
}

// writeReports persists triaged clusters and the quarantine ledger when -o
// is given.
func writeReports(dir, fsName string, clusters []*core.Cluster, census *harness.Census) {
	if dir == "" || (len(clusters) == 0 && len(census.Quarantined) == 0) {
		return
	}
	wr, err := report.NewWriter(dir)
	fatalIf(err)
	if len(clusters) > 0 {
		paths, err := wr.WriteClusters(fsName, clusters)
		fatalIf(err)
		fmt.Printf("\nwrote %d report directories under %s\n", len(paths), dir)
	}
	qpath, err := wr.WriteQuarantine(fsName, census.Quarantined, census.SuppressedQuarantine)
	fatalIf(err)
	if qpath != "" {
		fmt.Printf("wrote quarantine ledger to %s\n", qpath)
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "chipmunk:", err)
		os.Exit(harness.ExitFatal)
	}
}
