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
// -fuzz runs a coverage-guided fuzzing soak, the counterpart of the paper's
// modified Syzkaller (§3.4.2), and writes FUZZCENSUS.md under -o. Without
// -serve the coordinator listens on loopback and -j fleet workers run in
// the same process; with -serve, -worker processes join it:
//
//	chipmunk -fuzz -budget 2000 -bugs all -fs splitfs -j 2 -o out
//	chipmunk -fuzz -budget 2h -serve :9090 -resume soak.ckpt
//
// The -bugs flag selects which of the paper's Table 1 bugs are injected:
// "none" (the fixed systems, default), "all" (as published), or a
// comma-separated ID list. -faults turns on pmem fault injection (torn
// stores, bit corruption, media errors) against the sandboxed checker.
// Ctrl-C cancels the run and prints the partial census; a second Ctrl-C
// force-exits. Under -serve or -fuzz, the first Ctrl-C instead stops
// issuing leases and drains in-flight units to the checkpoint.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"chipmunk/internal/ace"
	"chipmunk/internal/campaign"
	"chipmunk/internal/core"
	"chipmunk/internal/fleet"
	"chipmunk/internal/harness"
	"chipmunk/internal/lease"
	"chipmunk/internal/report"
	"chipmunk/internal/workload"
)

// command is chipmunk's parsed command line: the run selection (spec, whose
// engine flags campaign.Spec binds), the execution, output and
// observability flags (cli), and each mode's own flags.
type command struct {
	fl   *flag.FlagSet
	spec campaign.Spec
	cli  *harness.CLIOptions

	suite, repro string
	max          int
	stopOne      bool

	serve, workerFor, resume string
	leaseTTL, shardTimeout   time.Duration
	shardRetries, poison     int
	retryQuarantined         bool
	wireFaults               uint64

	fuzz                  bool
	budget                string
	fuzzSeed              int64
	roundExecs, genRounds int
}

// parseCommand binds chipmunk's flags on fl and parses args. -app changes
// the -suite default to the KV suite.
func parseCommand(fl *flag.FlagSet, args []string) (*command, error) {
	// The removed -workers flag defaulted to 1, and the campaign ID hashes
	// the spec: keeping the 1 keeps -resume checkpoints written by earlier
	// builds valid.
	c := &command{fl: fl, spec: campaign.Spec{Workers: 1}}
	c.spec.BindFlags(fl)
	c.cli = harness.BindCLI(fl)
	fl.StringVar(&c.suite, "suite", "seq1", "workload suite: seq1, seq2, seq3m, seq1dax, seq2dax, kv, kv-smoke")
	fl.IntVar(&c.max, "max", 0, "stop after N workloads (0 = whole suite)")
	fl.BoolVar(&c.stopOne, "stop-on-bug", false, "stop at the first violating workload")
	fl.StringVar(&c.repro, "repro", "", "run a single reproducer file (workload.Format syntax) instead of a suite")
	fl.StringVar(&c.serve, "serve", "", "coordinate a distributed campaign on this host:port instead of running locally")
	fl.StringVar(&c.workerFor, "worker", "", "join the distributed campaign coordinated at this host:port (spec comes from the coordinator)")
	fl.StringVar(&c.resume, "resume", "", "(with -serve or -fuzz) append completed units to this checkpoint file and skip the units it already records")
	fl.DurationVar(&c.leaseTTL, "lease", lease.DefaultTTL, "(with -serve) lease deadline before a shard is re-dispatched")

	fl.IntVar(&c.shardRetries, "shard-retries", lease.DefaultRetries,
		"(with -serve) failed dispatch attempts before a shard is quarantined instead of re-dispatched")
	fl.BoolVar(&c.retryQuarantined, "retry-quarantined", false,
		"(with -serve -resume) re-run the shards the checkpoint records as quarantined")
	fl.Uint64Var(&c.wireFaults, "wire-faults", 0,
		"(with -serve) seed the deterministic wire-fault injector — chaos testing only (0 = off)")
	fl.DurationVar(&c.shardTimeout, "shard-timeout", campaign.DefaultShardTimeout,
		"(with -worker) watchdog deadline per shard engine call (negative = no watchdog)")
	fl.IntVar(&c.poison, "poison-shard", -1,
		"(with -worker) chaos hook: panic on this shard id to model a crash-looping workload (-1 = off)")

	fl.BoolVar(&c.fuzz, "fuzz", false,
		"run a coverage-guided fuzzing soak instead of a suite: on -j in-process workers, or distributed with -serve")
	fl.StringVar(&c.budget, "budget", "",
		"(with -fuzz) soak budget: a duration (\"2h\") or a total exec count (\"2000\"; exec budgets make the soak byte-reproducible)")
	fl.Int64Var(&c.fuzzSeed, "fuzz-seed", 1,
		"(with -fuzz) master fuzzing seed; round r runs with RNG stream splitmix64(seed, r)")
	fl.IntVar(&c.roundExecs, "round-execs", fleet.DefaultRoundExecs,
		"(with -fuzz) fuzzing iterations per round lease")
	fl.IntVar(&c.genRounds, "gen-rounds", fleet.DefaultGenRounds,
		"(with -fuzz) rounds per generation (the corpus-fold barrier width)")
	if err := fl.Parse(args); err != nil {
		return nil, err
	}
	if c.workerFor != "" {
		if set := c.engineFlagsSet(); len(set) > 0 {
			return nil, fmt.Errorf("-worker takes the run selection from the coordinator's spec; drop %s", strings.Join(set, " "))
		}
	}
	if c.spec.App != "" && !c.explicit("suite") {
		c.suite = "kv"
	}
	return c, nil
}

// engineFlagsSet names the flags the command line set that campaign.Spec
// binds: the run selection, which a worker takes from its coordinator.
func (c *command) engineFlagsSet() []string {
	engine := flag.NewFlagSet("", flag.ContinueOnError)
	new(campaign.Spec).BindFlags(engine)
	var set []string
	c.fl.Visit(func(f *flag.Flag) {
		if engine.Lookup(f.Name) != nil {
			set = append(set, "-"+f.Name)
		}
	})
	return set
}

// explicit reports whether the command line set flag name.
func (c *command) explicit(name string) bool {
	set := false
	c.fl.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// coordinatorSpec is the spec -serve and -fuzz coordinate: the run
// selection plus the mode's fields, the suite or the soak. A soak replays
// at most 2 in-flight writes unless -cap says otherwise, the paper's choice
// for open-ended search.
func (c *command) coordinatorSpec() (campaign.Spec, error) {
	spec := c.spec
	spec.Stats = c.cli.Stats
	if !c.fuzz {
		spec.Suite, spec.Max = c.suite, c.max
		return spec, nil
	}
	execs, dur, err := fleet.ParseBudget(c.budget)
	if err != nil {
		return campaign.Spec{}, err
	}
	spec.Fuzz, spec.FuzzSeed, spec.RoundExecs, spec.GenRounds = true, c.fuzzSeed, c.roundExecs, c.genRounds
	spec.BudgetExecs, spec.BudgetNanos = execs, int64(dur)
	if !c.explicit("cap") {
		spec.Cap = 2
	}
	return spec, nil
}

func main() {
	cmd, err := parseCommand(flag.CommandLine, os.Args[1:])
	fatalIf(err)
	cli := cmd.cli
	if cmd.workerFor != "" {
		os.Exit(runWorker(cmd.workerFor, cli, cmd.shardTimeout, cmd.poison))
	}

	opts, err := cmd.spec.Options()
	fatalIf(err)
	inst, err := cli.Instrument()
	fatalIf(err)
	defer inst.Close() //nolint:errcheck // re-checked explicitly below
	inst.Apply(&opts)

	if cmd.serve != "" || cmd.fuzz {
		if cmd.repro != "" {
			fatalIf(errors.New("-repro runs one workload locally; it combines with neither -serve nor -fuzz"))
		}
		_, _, err := opts.Resolve()
		fatalIf(err)
		spec, err := cmd.coordinatorSpec()
		fatalIf(err)
		k := serveKnobs{
			retries: cmd.shardRetries, leaseTTL: cmd.leaseTTL, checkpoint: cmd.resume,
			retryQuarantined: cmd.retryQuarantined, wireFaultSeed: cmd.wireFaults,
		}
		// Local fuzzing is a one-process fleet soak: the coordinator on a
		// loopback port, and -j fleet workers in process against it.
		addr := cmd.serve
		if addr == "" {
			addr, k.localWorkers = "127.0.0.1:0", cli.Jobs
			if k.localWorkers <= 0 {
				k.localWorkers = runtime.GOMAXPROCS(0)
			}
		}
		os.Exit(runCoordinator(addr, spec, k, inst, cli))
	}

	var suiteWs []workload.Workload
	suite := cmd.suite
	if cmd.repro != "" {
		data, err := os.ReadFile(cmd.repro)
		fatalIf(err)
		w, err := workload.Parse(string(data))
		fatalIf(err)
		if w.Name == "" {
			w.Name = cmd.repro
		}
		suiteWs = []workload.Workload{w}
		suite = "repro"
	} else {
		suiteWs, err = ace.SuiteByName(suite)
		fatalIf(err)
	}
	if cmd.max > 0 && cmd.max < len(suiteWs) {
		suiteWs = suiteWs[:cmd.max]
	}

	// -app without -fs sweeps every supported file system.
	if cmd.spec.App != "" {
		systems := harness.Systems()
		if cmd.explicit("fs") {
			sys, err := harness.SystemByName(cmd.spec.FS)
			fatalIf(err)
			systems = []harness.System{sys}
		}
		os.Exit(runApp(cli, cmd.spec, opts, suite, suiteWs, systems, inst))
	}

	sys, cfg, err := opts.Resolve()
	fatalIf(err)

	faultNote := ""
	if cmd.spec.Faults {
		faultNote = fmt.Sprintf(", faults on (seed %d)", cmd.spec.FaultSeed)
	}
	fmt.Printf("chipmunk: %s (bugs %s), suite %s: %d workloads, cap=%d%s\n",
		sys.Name, opts.Bugs, suite, len(suiteWs), opts.Cap, faultNote)

	ctx, stop := harness.SignalContext(context.Background())
	defer stop()

	inst.EmitRun(sys.Name, len(suiteWs))
	if addr := inst.Debug.Addr(); addr != "" {
		fmt.Printf("debug listener on http://%s (/debug/vars, /debug/pprof/, /progress)\n", addr)
	}

	runOpts := []harness.Option{harness.WithWorkers(cli.Jobs)}
	if cmd.stopOne {
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
	found := reportCensus(sys.Name, census, viol, interrupted, fmt.Sprintf("j=%d", cli.Jobs), cli, inst, nil)
	os.Exit(exitCode(inst, cli.Journal, false, found, interrupted))
}

// runApp is the -app mode: check the application's crash contract on one
// file system (explicit -fs) or sweep all of them, then render the
// durability report. opts is spec resolved. It returns the exit status,
// which matches the suite convention: 1 when the contract was violated
// anywhere, 130 on interrupt.
func runApp(cli *harness.CLIOptions, spec campaign.Spec, opts harness.Options, suiteName string,
	suiteWs []workload.Workload, systems []harness.System, inst *harness.Instrumentation) int {
	fmt.Printf("chipmunk: app=%s (app-bugs %s), suite %s: %d workloads × %d file systems, cap=%d\n",
		spec.App, spec.AppBugs, suiteName, len(suiteWs), len(systems), opts.Cap)

	ctx, stop := harness.SignalContext(context.Background())
	defer stop()
	inst.EmitRun("app/"+spec.App, len(suiteWs)*len(systems))
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
		// Every system runs the same workload names: each gets its own
		// trace, or their span IDs would collide.
		sysOpts := opts
		sysOpts.Tracer = opts.Tracer.Derive(sys.Name)
		census, viol, err := harness.Run(ctx, sysOpts.ConfigFor(sys), suiteWs,
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
			App: spec.App, AppBugs: spec.AppBugs, Suite: suiteName,
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
	return exitCode(inst, cli.Journal, false, len(all) > 0, interrupted)
}

// runWorker is the -worker mode: the engine spec comes from the
// coordinator, so only the local knobs (-j, watchdog, observability flags)
// apply. One handshake decides the mode — a fuzz spec routes to the fleet
// fuzzing worker, a suite spec to the campaign worker — so the worker
// command line is identical for both, and the spec is fetched once. A
// coordinator that was never reachable exits with the distinct
// ExitCoordinatorUnreachable code so fleet tooling can retry joining.
func runWorker(addr string, cli *harness.CLIOptions, shardTimeout time.Duration, poisonShard int) int {
	inst, err := cli.Instrument()
	fatalIf(err)
	ctx, stop := harness.SignalContext(context.Background())
	defer stop()
	logf := func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	info, err := campaign.FetchSpec(ctx, addr, 0)
	switch {
	case err != nil:
	case info.Spec.Fuzz:
		err = fleet.RunWorker(ctx, fleet.WorkerConfig{
			Addr: addr, RoundTimeout: shardTimeout, Journal: inst.Journal, Logf: logf, Info: info,
		})
	default:
		wc := campaign.WorkerConfig{
			Addr: addr, Jobs: cli.Jobs, ShardTimeout: shardTimeout, Journal: inst.Journal, Logf: logf, Info: info,
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
		if errors.Is(err, lease.ErrCoordinatorGone) {
			return harness.ExitCoordinatorUnreachable
		}
		return harness.ExitFatal
	}
	return exitCode(inst, cli.Journal, false, false, interrupted)
}

// serveKnobs is the -serve flag surface beyond the spec.
type serveKnobs struct {
	retries          int
	leaseTTL         time.Duration
	checkpoint       string
	retryQuarantined bool
	wireFaultSeed    uint64
	// localWorkers is how many fleet workers run in process against the
	// coordinator (-fuzz without -serve); 0 leaves the work to -worker
	// processes.
	localWorkers int
}

// runCoordinator is the -serve mode. The spec picks the coordinator: a fuzz
// spec a fleet soak (round and minimization leases, generation-barrier
// corpus folds, a deduplicated bug census), any other a suite campaign
// (shard leases folded into the serial census). Both then share one tail:
// arm the wire-fault injector, listen, drain in-flight units to the
// checkpoint on the first SIGINT (a second force-exits 130), report, and
// return the exit code.
func runCoordinator(addr string, spec campaign.Spec, k serveKnobs, inst *harness.Instrumentation, cli *harness.CLIOptions) int {
	logf := func(format string, args ...any) {
		if cli.Verbose {
			fmt.Printf(format+"\n", args...)
		}
	}
	var (
		coord interface {
			http.Handler
			Info() campaign.SpecInfo
			Degraded() bool
			Close() error
		}
		plan       string                      // the banner's account of the work
		wait       func(context.Context) error // the owner's Wait, keeping its census
		summarize  func(interrupted bool) bool // prints the census; true when it holds violations
		faultStats func() campaign.WireFaultStats
	)
	// stats prints the control plane; each owner's report calls it midway.
	stats := func(st fmt.Stringer) {
		fmt.Printf("%s\n", st)
		if faultStats != nil {
			fmt.Printf("%s\n", faultStats())
		}
	}
	if spec.Fuzz {
		c, err := fleet.NewCoordinator(fleet.CoordinatorConfig{Spec: spec, LeaseTTL: k.leaseTTL, Retries: k.retries,
			CheckpointPath: k.checkpoint, Journal: inst.Journal, Logf: logf})
		fatalIf(err)
		s := c.Info().Spec
		budget := fmt.Sprintf("%d execs", s.BudgetExecs)
		if s.BudgetNanos > 0 {
			budget = time.Duration(s.BudgetNanos).String() + " wall-clock"
		}
		plan = fmt.Sprintf("soak %s, budget %s in rounds of %d (gen width %d), seed %d",
			c.Info().CampaignID, budget, s.RoundExecs, s.GenRounds, s.FuzzSeed)
		var census report.FuzzCensus
		coord, wait = c, func(ctx context.Context) (err error) { census, err = c.Wait(ctx); return err }
		summarize = func(interrupted bool) bool {
			return reportSoak(census, interrupted, cli.OutDir, func() { stats(c.Stats()) })
		}
	} else {
		c, err := campaign.NewCoordinator(campaign.CoordinatorConfig{
			Spec: spec, LeaseTTL: k.leaseTTL, ShardRetries: k.retries,
			CheckpointPath: k.checkpoint, RetryQuarantined: k.retryQuarantined, Journal: inst.Journal, Logf: logf,
			Progress: func(done, total int, c harness.Census) {
				inst.Progress(done, total, c)
				fmt.Printf("  ... %d/%d workloads (%d crash states, %d violations)\n", done, total, c.StatesChecked, c.Violations)
			},
		})
		fatalIf(err)
		info := c.Info()
		plan = fmt.Sprintf("campaign %s, suite %s: %d workloads in %d trie units of at most %d",
			info.CampaignID, spec.Suite, info.Workloads, info.Shards, info.ShardSize)
		var census *harness.Census
		var viol []core.Violation
		coord, wait = c, func(ctx context.Context) (err error) { census, viol, err = c.Wait(ctx); return err }
		summarize = func(interrupted bool) bool {
			return reportCensus(spec.FS, census, viol, interrupted, "distributed", cli, inst, func() {
				st := c.Stats()
				stats(st)
				writeCampaignSummary(cli.OutDir, c, st, census, viol)
			})
		}
	}
	var handler http.Handler = coord
	if k.wireFaultSeed != 0 {
		handler, faultStats = campaign.WrapWireFaults(coord, campaign.DefaultWireFaults(k.wireFaultSeed))
		fmt.Printf("CHAOS: wire-fault injector armed (seed %d)\n", k.wireFaultSeed)
	}
	srv, err := campaign.ListenAndServe(addr, handler)
	fatalIf(err)
	info := coord.Info()
	fmt.Printf("chipmunk coordinator on %s: %s, %s (bugs %s), fingerprint %s, lease %v\n",
		srv.Addr(), plan, spec.FS, spec.Bugs, info.SuiteHash, k.leaseTTL)
	fmt.Printf("watch it at http://%s%s (JSON: %s, metrics: /debug/metrics)\n", srv.Addr(), lease.PathDash, lease.PathStatus)
	inst.EmitRun(spec.FS, info.Workloads)
	if daddr := inst.Debug.Addr(); daddr != "" {
		fmt.Printf("debug listener on http://%s\n", daddr)
	}

	ctx, stop := harness.SignalContextNotify(context.Background(),
		"interrupt: draining — no new leases; crediting in-flight units to the checkpoint (interrupt again to force exit)")
	defer stop()
	// Local workers keep their own context: a drain lets them credit the
	// units they hold, and they are cancelled only once the census is in.
	wctx, cancelWorkers := context.WithCancel(context.Background())
	var workers sync.WaitGroup
	for i := 0; i < k.localWorkers; i++ {
		workers.Add(1)
		go func(id string) {
			defer workers.Done()
			err := fleet.RunWorker(wctx, fleet.WorkerConfig{
				Addr: srv.Addr(), ID: id, Journal: inst.Journal, Logf: logf,
			})
			if !errors.Is(err, context.Canceled) {
				fatalIf(err)
			}
		}(fmt.Sprintf("local-%d", i))
	}
	err = wait(ctx)
	cancelWorkers()
	workers.Wait()
	srv.Close() //nolint:errcheck // listener teardown on the way out
	stop()
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		coord.Close() //nolint:errcheck // already failing
		fatalIf(err)
	}
	fatalIf(coord.Close())
	return exitCode(inst, cli.Journal, coord.Degraded(), summarize(interrupted), interrupted)
}

// writeCampaignSummary writes CAMPAIGN.txt under dir, when -o is given.
func writeCampaignSummary(dir string, c *campaign.Coordinator, st campaign.Stats, census *harness.Census, viol []core.Violation) {
	if dir == "" {
		return
	}
	wr, err := report.NewWriter(dir)
	fatalIf(err)
	path, err := wr.WriteCampaignSummary(c.Info(), st, c.Quarantined(), campaign.Fingerprint(census, viol))
	fatalIf(err)
	fmt.Printf("wrote campaign summary to %s\n", path)
}

// reportSoak prints a fuzz soak's census, with stats printing the control
// plane midway, writes FUZZCENSUS.md under dir, and says whether the census
// holds bugs.
func reportSoak(census report.FuzzCensus, interrupted bool, dir string, stats func()) bool {
	status := "done"
	if interrupted {
		status = "interrupted (partial census)"
	}
	fmt.Printf("\n%s: %d execs in %d rounds, %d crash states checked, corpus %d entries (%d coverage edges)\n",
		status, census.Execs, census.RoundsCredited, census.StatesChecked, census.CorpusSize, census.CoverageEdges)
	if census.QuarantinedChecks > 0 {
		fmt.Printf("sandbox: %d crash states quarantined\n", census.QuarantinedChecks)
	}
	stats()
	fmt.Printf("distinct bugs: %d\n", len(census.Clusters))
	for i, b := range census.Clusters {
		note := ""
		if b.Minimized && b.Verified {
			note = ", minimized"
		}
		fmt.Printf("  bug %d: %s on %s — %d reports (prefix %s%s)\n", i+1, b.Kind, b.FS, b.Count, b.Prefix, note)
	}
	if dir != "" {
		wr, err := report.NewWriter(dir)
		fatalIf(err)
		path, err := wr.WriteFuzzCensus(census)
		fatalIf(err)
		fmt.Printf("wrote fuzzing census to %s\n", path)
	}
	return len(census.Clusters) > 0
}

// reportCensus prints the census summary, triaged clusters, and optional
// reports, and says whether the run found violations. extra, when non-nil,
// runs after the census block (campaign stats).
func reportCensus(fsName string, census *harness.Census, viol []core.Violation, interrupted bool,
	modeNote string, cli *harness.CLIOptions, inst *harness.Instrumentation, extra func()) bool {
	clusters := core.Triage(viol)
	status := "done"
	if interrupted {
		status = "interrupted (partial census)"
	}
	fmt.Printf("\n%s: %d workloads, %d crash states (%d deduped, %d truncated fences), %v (%s)\n",
		status, census.Workloads, census.StatesChecked, census.StatesDeduped,
		census.TruncatedFences, census.Elapsed.Round(time.Millisecond), modeNote)
	if n := len(census.Quarantined) + census.SuppressedQuarantine; n > 0 {
		fmt.Printf("sandbox: %d states quarantined (%d suppressed past ledger cap)\n",
			n, census.SuppressedQuarantine)
		if cli.Verbose {
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
		if cli.Verbose {
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
		end := readGC()
		fmt.Printf("gc: cpu=%.3fs alloc=%.1fMB (this process)\n", end.cpu-gcStart.cpu, float64(end.alloc-gcStart.alloc)/1e6)
	}
	writeReports(cli.OutDir, fsName, clusters, census)
	return len(viol) > 0
}

// gcSample is the process's GC CPU time in seconds and its cumulative heap
// allocation in bytes.
type gcSample struct {
	cpu   float64
	alloc uint64
}

func readGC() gcSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return gcSample{s[0].Value.Float64(), s[1].Value.Uint64()}
}

// gcStart is read as the process starts, so -stats's gc line covers the
// whole run.
var gcStart = readGC()

// exitCode notes the journal, closes the instrumentation (os.Exit skips
// defers), and applies the shared status convention (harness.Exit*):
// degraded runs exit 3 — ahead of violations, because an incomplete census
// is the more urgent fact — then violations 1, interrupted 130.
func exitCode(inst *harness.Instrumentation, journal string, degraded, found, interrupted bool) int {
	if inst.Journal != nil {
		fmt.Printf("journal: %d events written to %s\n", inst.Journal.Events(), journal)
	}
	fatalIf(inst.Close())
	switch {
	case degraded:
		return harness.ExitDegraded
	case found:
		return harness.ExitViolations
	case interrupted:
		return harness.ExitInterrupted
	}
	return harness.ExitClean
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
