package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"chipmunk/internal/obs"
)

// options are the flags of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	outdir   string
	started  time.Time // process start, so the first set-up pass counts it
}

// childDeadline bounds one workload's process, inside the 180 s the driver
// allows, so a wedged campaign fails the run instead of hanging it.
const childDeadline = 150 * time.Second

// runOne runs one workload — set-up passes, then either the timed
// repetitions or the traced run — applies the output checks and writes the
// result file. The returned result is sealed; an error means the run could
// not produce one at all.
func runOne(o options) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childDeadline)
	defer cancel()
	size := fullSizes
	if o.smoke {
		size = smokeSizes
	}
	b, err := newBench(o.workload, env{ctx: ctx, seed: o.seed, sizes: size})
	if err != nil {
		return nil, err
	}
	res := &result{
		Meta:            newMeta(o.seed, o.trace, o.smoke),
		Workload:        o.workload,
		SeedIndependent: b.seedIndependent(),
		Samples:         map[string][]float64{},
		SampleCounts:    map[string]int{},
		Tail:            map[string]float64{},
	}
	var tr *tracer
	if o.trace {
		tr = newTracer(o.workload)
	}

	passes := setupPasses
	if o.trace || o.smoke {
		passes = 1
	}
	start := o.started
	for i := 0; i < passes; i++ {
		id := tr.begin("setup", 0)
		err := b.setup(tr, id)
		tr.finish(id)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.Samples["setup_s"] = append(res.Samples["setup_s"], time.Since(start).Seconds())
		start = time.Now()
	}

	if o.trace {
		err = tracedRun(ctx, o, b, tr, res)
	} else {
		err = timedRun(o, b, res)
	}
	if err != nil {
		return nil, err
	}
	res.seal()
	return res, writeJSON(resultPath(o.outdir, o.workload, o.trace), res)
}

// fold adds one repetition's units and messages to the result and checks
// its census against the first repetition's: every repetition of a run does
// the same work, so the fingerprints must be byte-identical.
func (r *result) fold(rep int, out repOut) {
	r.Attempted += out.Attempted
	r.Failed += out.Failed
	for _, m := range out.Messages {
		r.Messages = append(r.Messages, fmt.Sprintf("rep %d: %s", rep, m))
	}
	if r.Fingerprint == "" {
		r.Fingerprint, r.Counts = out.Fingerprint, out.Counts
	} else if out.Fingerprint != r.Fingerprint {
		r.fail("rep %d: census differs from rep 1: %q vs %q", rep, out.Fingerprint, r.Fingerprint)
	}
}

// timedRun repeats the workload, untraced, until the window has lasted
// o.seconds and at least minReps repetitions are in, and reports medians.
func timedRun(o options, b bench, res *result) error {
	window := time.Now()
	for rep := 1; ; rep++ {
		out, err := b.rep(nil)
		if err != nil {
			return fmt.Errorf("rep %d: %w", rep, err)
		}
		res.fold(rep, out)
		res.Samples["census_wall_s"] = append(res.Samples["census_wall_s"], out.Wall.Seconds())
		res.Samples["cpu_s_per_rep"] = append(res.Samples["cpu_s_per_rep"], out.cpu().Seconds())
		res.Samples["alloc_mb_per_rep"] = append(res.Samples["alloc_mb_per_rep"], float64(out.AllocBytes)/1e6)
		// Not gated; kept so a cpu_s_per_rep move can be split into its parts.
		res.Samples["cpu_sys_s"] = append(res.Samples["cpu_sys_s"], out.Sys.Seconds())
		res.Reps = rep
		if o.smoke || (rep >= minReps && time.Since(window) >= time.Duration(o.seconds)*time.Second) {
			break
		}
	}
	values := map[string]float64{}
	for _, d := range endToEnd {
		values[d.Name] = median(res.Samples[d.Name])
	}
	res.EndToEnd = setMetrics(endToEnd, values)
	return nil
}

// tracedRun makes one untraced and one traced repetition, the isolated
// layer probes and the workload's reference runs, and derives every
// per-layer metric. No end-to-end metric is taken from it.
func tracedRun(ctx context.Context, o options, b bench, tr *tracer, res *result) error {
	untraced, err := b.rep(nil)
	if err != nil {
		return fmt.Errorf("untraced rep: %w", err)
	}
	res.fold(1, untraced)
	rss := peakRSSMB()
	tr.setRep(1)
	traced, err := b.rep(tr)
	tr.setRep(0)
	if err != nil {
		return fmt.Errorf("traced rep: %w", err)
	}
	res.fold(2, traced)
	res.Reps = 1

	m, err := probeLayers(ctx, b.probe(), tr)
	if err != nil {
		return err
	}
	extra, err := b.extras(untraced, res)
	if err != nil {
		return err
	}
	for _, src := range []map[string]float64{traced.Layer, extra} {
		for k, v := range src {
			m[k] = v
		}
	}

	uw, tw := untraced.Wall.Seconds(), traced.Wall.Seconds()
	coreMetrics(m, traced.Obs, tw, uw)
	if n := len(traced.RunMS); n > 0 {
		m["core.run_p50_ms"] = percentile(traced.RunMS, 0.5)
		m["core.run_p99_ms"] = percentile(traced.RunMS, 0.99)
		res.SampleCounts["core.run"] = n
		// What is left of the serial wall once every run's fixed cost is
		// taken out, spread over the states: the per-state cost.
		floor := m["core.run_floor_us"] * float64(n)
		m["core.per_state_us"] = ratio(uw*1e6-floor, m["core.states_checked"])
	}
	m["obs.tracing_overhead_share"] = ratio(tw-uw, uw)
	m["proc.peak_rss_mb"] = rss
	m["proc.cpu_sys_share"] = ratio(untraced.Sys.Seconds(), untraced.cpu().Seconds())
	m["proc.cpu_util"] = ratio(untraced.cpu().Seconds(), uw*float64(runtime.GOMAXPROCS(0)))
	m["proc.gc_cycles"] = float64(untraced.GCCycles)
	m["proc.gc_pause_total_ms"] = untraced.GCPause.Seconds() * 1e3

	// The trace: harness.Run's own share, and the proof that the spans
	// under the census root account for the traced wall.
	spans := tr.snapshot()
	root := spans[traced.Root-1] // span IDs are 1-based positions
	rootDur := float64(root.End - root.Start)
	var selfSum float64
	for name, self := range selfByName(spans, traced.Root) {
		selfSum += float64(self)
		if strings.HasPrefix(name, "harness.run") {
			m["harness.fold_overhead_share"] += ratio(float64(self), rootDur)
		}
	}
	if math.Abs(ratio(selfSum-rootDur, rootDur)) > 0.02 {
		res.fail("trace: self times under the census root sum to %.0f ns, root lasted %.0f ns", selfSum, rootDur)
	}
	for name, n := range traced.SampleN {
		res.SampleCounts[name] = n
	}
	for name, n := range res.SampleCounts {
		res.Tail[name] = tailPercentile(n)
	}
	res.PerLayer = setMetrics(perLayer, m)
	return writeJSONL(filepath.Join(o.outdir, "trace-"+o.workload+".jsonl"), spans)
}

// coreMetrics reads the engine's six stages and its counters out of the
// obs.Snapshot the traced census returned. Stage times are from the traced
// repetition (wall tw); throughput is over the untraced wall uw, because
// the counts are the same and that is the wall a user gets.
func coreMetrics(m map[string]float64, snap *obs.Snapshot, tw, uw float64) {
	for _, st := range []obs.Stage{obs.StageOracle, obs.StageRecord, obs.StageDedup, obs.StageReplay, obs.StageMount, obs.StageCheck} {
		m["core."+st.String()+"_s"] = snap.Stage(st).Total().Seconds()
	}
	m["core.stage_sum_share"] = ratio(snap.StageTotal().Seconds(), tw)
	states := float64(snap.Count(obs.CtrStatesChecked))
	deduped := float64(snap.Count(obs.CtrDedupHits))
	m["core.workloads"] = float64(snap.Count(obs.CtrWorkloads))
	m["core.fences"] = float64(snap.Count(obs.CtrFences))
	m["core.states_checked"] = states
	m["core.states_deduped"] = deduped
	m["core.dedup_hit_ratio"] = ratio(deduped, states+deduped)
	m["core.image_primes"] = float64(snap.Count(obs.CtrImagePrimes))
	m["core.bytes_primed_per_state"] = ratio(float64(snap.Count(obs.CtrBytesPrimed)), states)
	m["core.bytes_materialized_per_state"] = ratio(float64(snap.Count(obs.CtrBytesMaterialized)), states)
	m["core.bytes_rolled_back_per_state"] = ratio(float64(snap.Count(obs.CtrBytesRolledBack)), states)
	m["core.retried_checks"] = float64(snap.Count(obs.CtrSandboxRetries))
	m["core.quarantined"] = float64(snap.Count(obs.CtrQuarantines))
	m["core.states_per_s"] = ratio(states, uw)
}

// report prints every metric of res by name with its unit, then the checks.
func (r *result) report() string {
	var b strings.Builder
	if r.Meta.Traced {
		printMetrics(&b, r.Workload, perLayer, r.PerLayer)
	} else {
		printMetrics(&b, r.Workload, endToEnd, r.EndToEnd)
		fmt.Fprintf(&b, "%-20s %-36s %14.6g %s\n", r.Workload, "failed_share", r.FailedShare, "ratio")
		fmt.Fprintf(&b, "%-20s medians over R=%d repetitions (setup_s over %d passes)", r.Workload, r.Reps, len(r.Samples["setup_s"]))
		if r.SeedIndependent {
			fmt.Fprintf(&b, "; seed-independent: the seed cannot reach this workload's inputs")
		}
		b.WriteByte('\n')
	}
	for _, m := range r.Messages {
		fmt.Fprintf(&b, "%-20s CHECK %s\n", r.Workload, m)
	}
	return b.String()
}

// runChild is the -workload mode: the driver's interface. The last line of
// standard output is the result object; the exit code is non-zero when a
// check failed or no result could be produced.
func runChild(o options) int {
	res, err := runOne(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := res.driverLine()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	fmt.Print(res.report())
	fmt.Printf("%s\n", line)
	return exitCode(res.Correct)
}

// exitCode is non-zero whenever an output check failed.
func exitCode(correct bool) int {
	if correct {
		return 0
	}
	return 1
}
