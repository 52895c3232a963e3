package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/campaign"
	"chipmunk/internal/core"
	"chipmunk/internal/fleet"
	"chipmunk/internal/fuzz"
	"chipmunk/internal/harness"
	"chipmunk/internal/obs"
	"chipmunk/internal/report"
	"chipmunk/internal/workload"
)

// env is what a workload is built from. The program under test never sees
// the seed or a workload name, only the inputs generated from them.
type env struct {
	ctx  context.Context
	seed int64
	sizes
}

// sizes are the amounts of work -smoke shrinks, so that the smoke run makes
// every call the full run makes and still finishes in seconds under -race.
type sizes struct {
	suiteMax    int // workloads kept of each seq2/seq2dax/warm-up suite (0 = all)
	sweepMax    int // workloads kept of each sweep7 leg (0 = all)
	shardSize   int // campaign shard size
	fuzzExecs   int // fleet soak budget
	roundExecs  int // fleet round size
	minExecs    int // fleet minimization budget per task (0 = fleet's default)
	warmExecs   int // fleet warm-up steps
	serialSteps int // serial fuzz baseline steps
	probeScale  int // iteration scale of the isolated layer probes
}

var (
	fullSizes  = sizes{shardSize: 32, fuzzExecs: 1000, roundExecs: 25, warmExecs: 50, serialSteps: 300, probeScale: 20}
	smokeSizes = sizes{suiteMax: 4, sweepMax: 1, shardSize: 1, fuzzExecs: 6, roundExecs: 3, minExecs: 5, warmExecs: 3, serialSteps: 3, probeScale: 1}
)

// repOut is what one repetition produced: its cost, the identity of its
// census, and the unit counts failed_share is made of. The traced
// repetition also fills Obs, RunMS, Layer and Root.
type repOut struct {
	usage
	Fingerprint string
	Attempted   int
	Failed      int
	Messages    []string
	Counts      map[string]int

	Obs     *obs.Snapshot
	RunMS   []float64          // per-workload latency, harness workloads only
	Layer   map[string]float64 // per-layer values only this repetition can see
	SampleN map[string]int     // n behind each percentile in Layer
	Root    int                // the repetition's "census" span
}

func (o *repOut) fail(format string, args ...any) {
	o.Failed++
	o.Messages = append(o.Messages, fmt.Sprintf(format, args...))
}

// bench is one workload. setup is one complete set-up pass including the
// warm-up; rep is one repetition, traced when tr is non-nil; extras are the
// reference runs only the traced run makes (serial twin, fan-out ratios).
type bench interface {
	setup(tr *tracer, parent int) error
	rep(tr *tracer) (repOut, error)
	extras(untraced repOut, res *result) (map[string]float64, error)
	seedIndependent() bool
	probe() probeTarget
}

// probeTarget tells the generic per-layer probes what this workload runs on.
type probeTarget struct {
	suites  []string          // ace suite names the workload generates
	systems []harness.System  // guests it mounts
	bugs    bugs.Set          // injected into those guests
	floor   core.Config       // config for the zero-op run floor
	sample  workload.Workload // a representative workload for capture/exec
	scale   int               // iteration scale (sizes.probeScale)
}

func newBench(name string, e env) (bench, error) {
	switch name {
	case "seq2-nova":
		return &harnessBench{env: e, max: e.suiteMax, specs: []legSpec{{"nova", "seq2", ""}}}, nil
	case "seq2dax-ext4":
		return &harnessBench{env: e, max: e.suiteMax, specs: []legSpec{{"ext4-dax", "seq2dax", ""}}}, nil
	case "sweep7":
		var legs []legSpec
		for _, sys := range harness.Systems() {
			legs = append(legs, legSpec{sys.Name, seq1For(sys), ""}, legSpec{sys.Name, "kv", "kv"})
		}
		return &harnessBench{env: e, max: e.sweepMax, specs: legs}, nil
	case "campaign-seq2-nova":
		return &campaignBench{env: e}, nil
	case "fleet-fuzz-nova":
		return &fleetBench{env: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// seq1For names the seq-1 suite a system is checked with: the weak,
// fsync-gated systems need the variants with a sync tail.
func seq1For(sys harness.System) string {
	if sys.Weak {
		return "seq1dax"
	}
	return "seq1"
}

// permute reorders suite with a seeded shuffle: the same multiset of work
// on every seed, with a different pool and arena history.
func permute(suite []workload.Workload, seed int64) {
	rand.New(rand.NewSource(seed)).Shuffle(len(suite), func(i, j int) {
		suite[i], suite[j] = suite[j], suite[i]
	})
}

func truncate(suite []workload.Workload, n int) []workload.Workload {
	if n > 0 && n < len(suite) {
		return suite[:n]
	}
	return suite
}

// censusCheck applies the checks every clean harness census must pass and
// returns its identity: the system, the suite and its hash, and the census
// fingerprint. Obs is dropped first: stage timings are measurements, and the
// traced and untraced repetitions must compare equal.
func censusCheck(o *repOut, fs, suite, hash string, c *harness.Census, viol []core.Violation, want int) string {
	what := fs + "/" + suite
	o.Attempted += c.StatesChecked + c.StatesDeduped
	o.Failed += len(c.Quarantined) + c.SuppressedQuarantine
	if c.Workloads != want {
		o.fail("%s: completed %d workloads, suite has %d", what, c.Workloads, want)
	}
	if c.Violations != 0 || len(viol) != 0 {
		o.fail("%s: %d violations on a clean system", what, max(c.Violations, len(viol)))
	}
	if n := len(c.Quarantined) + c.SuppressedQuarantine; n != 0 {
		o.Messages = append(o.Messages, fmt.Sprintf("%s: %d quarantined checks", what, n))
	}
	plain := *c
	plain.Obs = nil
	return fmt.Sprintf("%s suite=%s %s", what, hash, campaign.Fingerprint(&plain, viol))
}

// --- harness.Run workloads ------------------------------------------------

type legSpec struct{ fs, suite, app string }

type leg struct {
	legSpec
	sys  harness.System
	opts harness.Options
	work []workload.Workload // the suite, cut to max and permuted
}

// harnessBench runs one or more (system, suite, checker) legs through
// harness.Run, serially, the way the chipmunk CLI does.
type harnessBench struct {
	env
	specs []legSpec
	max   int // workloads kept per suite (0 = all)
	legs  []leg
	warm  []leg // seq-1 on each distinct system
	// hashes are the suite hashes before permutation, part of
	// the census identity: the same on every seed, which is the evidence
	// that seeds reorder the work and do not change it.
	hashes map[string]string
}

func (h *harnessBench) seedIndependent() bool { return false }

func (h *harnessBench) buildLeg(s legSpec, tr *tracer, parent int) (leg, error) {
	var suite []workload.Workload
	err := tr.region("ace.generate "+s.suite, parent, func(int) (err error) {
		suite, err = ace.SuiteByName(s.suite)
		return err
	})
	if err != nil {
		return leg{}, err
	}
	suite = truncate(suite, h.max)
	_ = tr.region("workload.suitehash "+s.suite, parent, func(int) error {
		h.hashes[s.suite] = workload.FormatSuiteHash(workload.SuiteHash(suite))
		return nil
	})
	permute(suite, h.seed)
	opts := harness.Options{FS: s.fs, Bugs: bugs.None(), Workers: 1, App: s.app}
	sys, _, err := opts.Resolve()
	if err != nil {
		return leg{}, err
	}
	return leg{legSpec: s, sys: sys, opts: opts, work: suite}, nil
}

func (h *harnessBench) setup(tr *tracer, parent int) error {
	h.legs, h.warm, h.hashes = nil, nil, map[string]string{}
	warmed := map[string]bool{}
	for _, s := range h.specs {
		l, err := h.buildLeg(s, tr, parent)
		if err != nil {
			return err
		}
		h.legs = append(h.legs, l)
		if !warmed[s.fs] {
			warmed[s.fs] = true
			w, err := h.buildLeg(legSpec{s.fs, seq1For(l.sys), ""}, tr, parent)
			if err != nil {
				return err
			}
			h.warm = append(h.warm, w)
		}
	}
	return tr.region("warmup", parent, func(int) error {
		for _, w := range h.warm {
			if _, _, err := harness.Run(h.ctx, w.opts.ConfigFor(w.sys), w.work); err != nil {
				return fmt.Errorf("warm-up %s/%s: %w", w.fs, w.suite, err)
			}
		}
		return nil
	})
}

func (h *harnessBench) rep(tr *tracer) (repOut, error) {
	out := repOut{Counts: map[string]int{}, Layer: map[string]float64{}}
	var fp bytes.Buffer
	u, err := measure(func() error {
		out.Root = tr.begin("census", 0)
		defer tr.finish(out.Root)
		for i := range h.legs {
			l := &h.legs[i]
			opts := l.opts
			var runOpts []harness.Option
			legSpan := tr.begin("harness.run "+l.fs+"/"+l.suite, out.Root)
			if tr != nil {
				opts.Obs = obs.New()
				// Serial delivery is synchronous, one call per workload, so
				// the gap between two calls is one workload's engine run
				// plus its fold. The callback's own body is left out: it
				// is tracing cost, and lands in harness.run's self time.
				last := time.Now()
				runOpts = append(runOpts, harness.WithProgress(func(int, int, harness.Census) {
					now := time.Now()
					tr.add(span{Name: "core.run", Parent: legSpan}, last, now)
					out.RunMS = append(out.RunMS, now.Sub(last).Seconds()*1e3)
					last = time.Now()
				}))
			}
			start := time.Now()
			c, viol, err := harness.Run(h.ctx, opts.ConfigFor(l.sys), l.work, runOpts...)
			wall := time.Since(start)
			tr.finish(legSpan)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", l.fs, l.suite, err)
			}
			fp.WriteString(censusCheck(&out, l.fs, l.suite, h.hashes[l.suite], c, viol, len(l.work)))
			out.Counts["workloads"] += c.Workloads
			out.Counts["states_checked"] += c.StatesChecked
			out.Counts["states_deduped"] += c.StatesDeduped
			if c.Obs != nil {
				if out.Obs == nil {
					out.Obs = &obs.Snapshot{}
				}
				out.Obs.Merge(*c.Obs)
			}
			if len(h.legs) > 1 {
				out.Layer["fs."+l.fs+".wall_s"] += wall.Seconds()
			}
			if l.app == "kv" {
				out.Layer["app.kv_wall_s"] += wall.Seconds()
				out.Layer["app.kv_states_checked"] += float64(c.StatesChecked)
			}
		}
		return nil
	})
	out.usage = u
	out.Fingerprint = fp.String()
	return out, err
}

// extras measures the two fan-out ratios on the single-leg nova workload:
// suite-level workers (harness.WithWorkers) and in-engine workers
// (Options.Workers), each against the untraced serial repetition.
func (h *harnessBench) extras(untraced repOut, res *result) (map[string]float64, error) {
	m := map[string]float64{}
	if len(h.legs) != 1 || h.legs[0].fs != "nova" {
		return m, nil
	}
	l := h.legs[0]
	timed := func(what string, opts harness.Options, runOpts ...harness.Option) (time.Duration, error) {
		var o repOut
		start := time.Now()
		c, viol, err := harness.Run(h.ctx, opts.ConfigFor(l.sys), l.work, runOpts...)
		wall := time.Since(start)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", what, err)
		}
		if fp := censusCheck(&o, l.fs, l.suite, h.hashes[l.suite], c, viol, len(l.work)); fp != untraced.Fingerprint {
			res.fail("%s: census differs from the serial run: %q vs %q", what, fp, untraced.Fingerprint)
		}
		return wall, nil
	}
	j2, err := timed("WithWorkers(2)", l.opts, harness.WithWorkers(2))
	if err != nil {
		return nil, err
	}
	w2opts := l.opts
	w2opts.Workers = 2
	w2, err := timed("Options.Workers=2", w2opts)
	if err != nil {
		return nil, err
	}
	m["harness.fanout_speedup_j2"] = untraced.Wall.Seconds() / j2.Seconds()
	m["harness.inworkload_speedup_w2"] = untraced.Wall.Seconds() / w2.Seconds()
	return m, nil
}

func (h *harnessBench) probe() probeTarget {
	t := probeTarget{bugs: bugs.None(), floor: h.legs[0].opts.ConfigFor(h.legs[0].sys), scale: h.probeScale}
	seen := map[string]bool{}
	for _, l := range h.legs {
		if !seen["suite "+l.suite] {
			seen["suite "+l.suite] = true
			t.suites = append(t.suites, l.suite)
		}
		if !seen["fs "+l.fs] {
			seen["fs "+l.fs] = true
			t.systems = append(t.systems, l.sys)
		}
	}
	t.sample = h.legs[0].work[0]
	return t
}

// --- distributed workloads --------------------------------------------------

// runWorkers starts one worker goroutine per fan-out slot against addr, waits
// for the coordinator's census inside the measured region, then — outside
// it — for the workers to notice the campaign is over.
func runWorkers(ctx context.Context, worker func(ctx context.Context, id string) error, wait func(ctx context.Context) error) (usage, []error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	n := fanout()
	errs := make([]error, n)
	var wg sync.WaitGroup
	u, err := measure(func() error {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if errs[i] = worker(ctx, fmt.Sprintf("w%d", i)); errs[i] != nil {
					cancel() // the census can no longer complete; unblock wait
				}
			}(i)
		}
		return wait(ctx)
	})
	wg.Wait()
	var failed []error
	if err != nil {
		failed = append(failed, err)
	}
	for _, e := range errs {
		if e != nil && !errors.Is(e, context.Canceled) {
			failed = append(failed, e)
		}
	}
	return u, failed
}

// serve puts h behind a loopback listener, wrapped by a wire tap when the
// repetition is traced.
func serve(h http.Handler, tr *tracer) (*campaign.Server, *wireTap, error) {
	var tap *wireTap
	if tr != nil {
		tap = &wireTap{next: h}
		h = tap
	}
	srv, err := campaign.ListenAndServe("127.0.0.1:0", h)
	return srv, tap, err
}

// campaignBench shards seq2 on nova over a loopback coordinator and
// in-process workers. The suite never crosses the wire (workers rebuild it
// from its name), so the seed has nothing to reach: the workload is
// seed-independent and says so in its output.
type campaignBench struct {
	env
	spec campaign.Spec
}

func (b *campaignBench) seedIndependent() bool { return true }

func (b *campaignBench) newCoordinator(stats bool) (*campaign.Coordinator, error) {
	spec := b.spec
	spec.Stats = stats
	return campaign.NewCoordinator(campaign.CoordinatorConfig{Spec: spec, ShardSize: b.shardSize})
}

func (b *campaignBench) setup(tr *tracer, parent int) error {
	b.spec = campaign.Spec{FS: "nova", Bugs: "none", Suite: "seq2", Max: b.suiteMax, Workers: 1}
	err := tr.region("campaign.construct", parent, func(int) error {
		coord, err := b.newCoordinator(false)
		if err != nil {
			return err
		}
		srv, _, err := serve(coord, nil)
		if err != nil {
			return err
		}
		_ = srv.Close()
		return coord.Close()
	})
	if err != nil {
		return err
	}
	return tr.region("warmup", parent, func(int) error {
		suite, err := ace.SuiteByName("seq1")
		if err != nil {
			return err
		}
		opts, err := b.spec.Options()
		if err != nil {
			return err
		}
		_, cfg, err := opts.Resolve()
		if err != nil {
			return err
		}
		_, _, err = harness.Run(b.ctx, cfg, truncate(suite, b.suiteMax))
		return err
	})
}

func (b *campaignBench) rep(tr *tracer) (repOut, error) {
	out := repOut{Counts: map[string]int{}, Layer: map[string]float64{}}
	coord, err := b.newCoordinator(tr != nil)
	if err != nil {
		return out, err
	}
	defer coord.Close() //nolint:errcheck // no checkpoint file is attached
	srv, tap, err := serve(coord, tr)
	if err != nil {
		return out, err
	}
	defer srv.Close() //nolint:errcheck // listener teardown

	var census *harness.Census
	var viol []core.Violation
	var end time.Time
	u, errs := runWorkers(b.ctx,
		func(ctx context.Context, id string) error {
			return campaign.RunWorker(ctx, campaign.WorkerConfig{Addr: srv.Addr(), ID: id, Jobs: 1})
		},
		func(ctx context.Context) (err error) {
			out.Root = tr.begin("census", 0)
			census, viol, err = coord.Wait(ctx)
			tr.finish(out.Root)
			end = time.Now()
			return err
		})
	out.usage = u
	if len(errs) > 0 {
		return out, fmt.Errorf("campaign: %w", errs[0])
	}

	info, st := coord.Info(), coord.Stats()
	out.Fingerprint = censusCheck(&out, b.spec.FS, b.spec.Suite, info.SuiteHash, census, viol, info.Workloads)
	out.Attempted += st.Shards
	out.Failed += st.ShardsQuarantined
	if st.Done != st.Shards {
		out.fail("campaign: %d of %d shards done", st.Done, st.Shards)
	}
	if st.Duplicates != 0 || st.BadPayloads != 0 || st.Rejected != 0 {
		out.fail("campaign: %d duplicates, %d bad payloads, %d rejected on a fault-free wire",
			st.Duplicates, st.BadPayloads, st.Rejected)
	}
	out.Counts["workloads"] = census.Workloads
	out.Counts["states_checked"] = census.StatesChecked
	out.Counts["states_deduped"] = census.StatesDeduped
	out.Counts["shards"] = st.Shards
	out.Obs = census.Obs
	if tap != nil {
		w := tap.analyse(tr, out.Root, end)
		out.Layer["campaign.shards"] = float64(st.Shards)
		out.Layer["campaign.requests_per_shard"] = ratio(float64(len(tap.calls)), float64(st.Shards))
		out.Layer["campaign.lease_srv_p50_us"] = percentile(w.srvUS[campaign.PathLease], 0.5)
		out.Layer["campaign.lease_srv_p99_us"] = percentile(w.srvUS[campaign.PathLease], 0.99)
		out.Layer["campaign.credit_srv_p50_us"] = percentile(w.srvUS[campaign.PathResult], 0.5)
		out.Layer["campaign.credit_srv_p99_us"] = percentile(w.srvUS[campaign.PathResult], 0.99)
		out.Layer["campaign.wire_bytes_per_state"] = ratio(float64(w.bytes), float64(census.StatesChecked))
		out.Layer["campaign.worker_busy_share"] = ratio(w.busy.Seconds(), float64(fanout())*u.Wall.Seconds())
		out.Layer["campaign.tail_s"] = w.tail.Seconds()
		out.Layer["campaign.redispatched"] = float64(st.Redispatched)
		out.Layer["campaign.duplicates"] = float64(st.Duplicates)
		out.Layer["campaign.bad_payloads"] = float64(st.BadPayloads)
		out.Layer["campaign.quarantined"] = float64(st.ShardsQuarantined)
		out.SampleN = map[string]int{
			"campaign.lease_srv":  len(w.srvUS[campaign.PathLease]),
			"campaign.credit_srv": len(w.srvUS[campaign.PathResult]),
		}
	}
	return out, nil
}

// extras runs the campaign's serial twin — harness.Run over the same suite
// in this process — to assert distributed == serial and to price the fan-out.
func (b *campaignBench) extras(untraced repOut, res *result) (map[string]float64, error) {
	suite, err := b.spec.BuildSuite()
	if err != nil {
		return nil, err
	}
	opts, err := b.spec.Options()
	if err != nil {
		return nil, err
	}
	_, cfg, err := opts.Resolve()
	if err != nil {
		return nil, err
	}
	var o repOut
	start := time.Now()
	c, viol, err := harness.Run(b.ctx, cfg, suite)
	serial := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("serial twin: %w", err)
	}
	hash := workload.FormatSuiteHash(workload.SuiteHash(suite))
	if fp := censusCheck(&o, b.spec.FS, b.spec.Suite, hash, c, viol, len(suite)); fp != untraced.Fingerprint {
		res.fail("distributed census differs from serial: %q vs %q", untraced.Fingerprint, fp)
	}
	return map[string]float64{
		"campaign.shards_per_s":        ratio(float64(untraced.Counts["shards"]), untraced.Wall.Seconds()),
		"campaign.parallel_efficiency": ratio(serial.Seconds(), float64(fanout())*untraced.Wall.Seconds()),
	}, nil
}

func (b *campaignBench) probe() probeTarget {
	sys, cfg, sample := mustNova(bugs.None())
	return probeTarget{suites: []string{"seq2"}, systems: []harness.System{sys}, bugs: bugs.None(), floor: cfg, sample: sample, scale: b.probeScale}
}

// mustNova resolves nova with a bug set; the name is a constant of this
// file, so failure is a bug here, not an input error.
func mustNova(set bugs.Set) (harness.System, core.Config, workload.Workload) {
	sys, cfg, err := harness.Options{FS: "nova", Bugs: set, Workers: 1}.Resolve()
	if err != nil {
		panic(err)
	}
	return sys, cfg, ace.Seq1()[0]
}

// fleetBench is a fixed-budget fleet fuzzing soak on nova with four
// injected bugs. FuzzSeed is pinned: soaks of different fuzz seeds differ in
// wall by up to 29% (they find different numbers of clusters, and each
// cluster costs a minimization task), which no usable bound survives, so
// this workload is seed-independent too and says so in its output.
type fleetBench struct {
	env
	spec campaign.Spec
	cfg  core.Config
}

const (
	fleetFuzzSeed = 1
	fleetBugs     = "4,5,6,8"
)

func (b *fleetBench) seedIndependent() bool { return true }

func (b *fleetBench) setup(tr *tracer, parent int) error {
	b.spec = fleet.Normalize(campaign.Spec{
		FS: "nova", Bugs: fleetBugs, Cap: 2, Workers: 1,
		Fuzz: true, FuzzSeed: fleetFuzzSeed,
		BudgetExecs: b.fuzzExecs, RoundExecs: b.roundExecs, MinExecs: b.minExecs, GenRounds: 8,
	})
	opts, err := b.spec.Options()
	if err != nil {
		return err
	}
	if _, b.cfg, err = opts.Resolve(); err != nil {
		return err
	}
	err = tr.region("fleet.construct", parent, func(int) error {
		coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{Spec: b.spec})
		if err != nil {
			return err
		}
		srv, _, err := serve(coord, nil)
		if err != nil {
			return err
		}
		_ = srv.Close()
		return coord.Close()
	})
	if err != nil {
		return err
	}
	return tr.region("warmup", parent, func(int) error {
		return fuzz.New(b.cfg, fleetFuzzSeed, nil).Run(b.warmExecs)
	})
}

func (b *fleetBench) rep(tr *tracer) (repOut, error) {
	out := repOut{Counts: map[string]int{}, Layer: map[string]float64{}}
	spec := b.spec
	spec.Stats = tr != nil
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{Spec: spec})
	if err != nil {
		return out, err
	}
	defer coord.Close() //nolint:errcheck // no checkpoint file is attached
	srv, tap, err := serve(coord, tr)
	if err != nil {
		return out, err
	}
	defer srv.Close() //nolint:errcheck // listener teardown

	var census report.FuzzCensus
	var rendered bytes.Buffer
	var render time.Duration
	var end time.Time
	u, errs := runWorkers(b.ctx,
		func(ctx context.Context, id string) error {
			return fleet.RunWorker(ctx, fleet.WorkerConfig{Addr: srv.Addr(), ID: id})
		},
		func(ctx context.Context) (err error) {
			out.Root = tr.begin("census", 0)
			defer tr.finish(out.Root)
			if census, err = coord.Wait(ctx); err != nil {
				return err
			}
			end = time.Now()
			// The census is in hand once FUZZCENSUS.md is rendered.
			return tr.region("report.fuzzcensus", out.Root, func(int) error {
				start := time.Now()
				err := report.WriteFuzzCensus(&rendered, census)
				render = time.Since(start)
				return err
			})
		})
	out.usage = u
	if len(errs) > 0 {
		return out, fmt.Errorf("fleet: %w", errs[0])
	}

	st := coord.Stats()
	// The spec hash covers Spec.Stats, which only the traced repetition
	// sets, so the identity of the census is taken with it blanked.
	plain := census
	plain.SpecHash = ""
	h := fnv.New64a()
	if err := report.WriteFuzzCensus(h, plain); err != nil {
		return out, err
	}
	out.Fingerprint = fmt.Sprintf("FUZZCENSUS.md fnv64a=%016x bytes=%d", h.Sum64(), rendered.Len())
	out.Attempted = census.StatesChecked + st.Rounds + st.MinTasks
	out.Failed = census.QuarantinedChecks + st.RoundsDropped + st.MinDropped
	if census.Execs != spec.BudgetExecs {
		out.fail("fleet: %d execs credited, budget %d", census.Execs, spec.BudgetExecs)
	}
	if len(census.Clusters) < 1 {
		out.fail("fleet: no violation cluster on a system with bugs %s injected", fleetBugs)
	}
	if st.Duplicates != 0 || st.BadPayloads != 0 || st.Rejected != 0 {
		out.fail("fleet: %d duplicates, %d bad payloads, %d rejected on a fault-free wire",
			st.Duplicates, st.BadPayloads, st.Rejected)
	}
	out.Counts["execs"] = census.Execs
	out.Counts["states_checked"] = census.StatesChecked
	out.Counts["rounds"] = st.Rounds
	out.Counts["min_tasks"] = st.MinTasks
	out.Counts["clusters"] = len(census.Clusters)
	if tap != nil {
		out.Obs = coord.MergedObs()
		w := tap.analyse(tr, out.Root, end)
		out.Layer["fleet.rounds"] = float64(st.Rounds)
		out.Layer["fleet.generations"] = float64(st.Generations)
		out.Layer["fleet.min_tasks"] = float64(st.MinTasks)
		out.Layer["fleet.wait_responses"] = float64(w.waits)
		out.Layer["fleet.barrier_wait_s"] = w.waiting.Seconds()
		out.Layer["fleet.worker_busy_share"] = ratio(w.busy.Seconds(), float64(fanout())*u.Wall.Seconds())
		out.Layer["fleet.lease_srv_p99_us"] = percentile(w.srvUS[fleet.PathFuzzLease], 0.99)
		out.Layer["fleet.credit_srv_p99_us"] = percentile(w.srvUS[fleet.PathFuzzResult], 0.99)
		out.Layer["fleet.wire_bytes_per_exec"] = ratio(float64(w.bytes), float64(census.Execs))
		out.Layer["fleet.corpus_entries"] = float64(census.CorpusSize)
		out.Layer["fleet.coverage_edges"] = float64(census.CoverageEdges)
		out.Layer["fleet.clusters"] = float64(len(census.Clusters))
		out.Layer["fleet.dropped_rounds"] = float64(st.RoundsDropped)
		out.Layer["report.fuzzcensus_render_ms"] = render.Seconds() * 1e3
		out.SampleN = map[string]int{
			"fleet.lease_srv":  len(w.srvUS[fleet.PathFuzzLease]),
			"fleet.credit_srv": len(w.srvUS[fleet.PathFuzzResult]),
		}
	}
	return out, nil
}

// extras runs the soak's serial baseline: the same fuzzer configuration
// stepped in this goroutine, no fleet, no wire.
func (b *fleetBench) extras(untraced repOut, res *result) (map[string]float64, error) {
	steps := b.serialSteps
	fz := fuzz.New(b.cfg, fleetFuzzSeed, nil)
	stepMS := make([]float64, 0, steps)
	start := time.Now()
	for i := 0; i < steps; i++ {
		t := time.Now()
		if _, err := fz.StepDelta(); err != nil {
			return nil, fmt.Errorf("serial fuzz step %d: %w", i, err)
		}
		stepMS = append(stepMS, time.Since(t).Seconds()*1e3)
	}
	serial := ratio(float64(steps), time.Since(start).Seconds())
	perS := ratio(float64(untraced.Counts["execs"]), untraced.Wall.Seconds())
	res.SampleCounts["fuzz.step"] = steps
	return map[string]float64{
		"fuzz.step_p50_ms":        percentile(stepMS, 0.5),
		"fuzz.step_p99_ms":        percentile(stepMS, 0.99),
		"fuzz.execs_per_s_serial": serial,
		"fleet.execs_per_s":       perS,
		"fleet.min_tasks_per_s":   ratio(float64(untraced.Counts["min_tasks"]), untraced.Wall.Seconds()),
		"fleet.scaling_vs_serial": ratio(perS, serial),
	}, nil
}

func (b *fleetBench) probe() probeTarget {
	set, err := harness.ParseBugSpec(fleetBugs)
	if err != nil {
		panic(err) // fleetBugs is a constant of this file
	}
	sys, cfg, sample := mustNova(set)
	return probeTarget{systems: []harness.System{sys}, bugs: set, floor: cfg, sample: sample, scale: b.probeScale}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
