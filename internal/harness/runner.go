package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"chipmunk/internal/core"
	"chipmunk/internal/obs"
	"chipmunk/internal/workload"
)

// Progress is the suite-progress callback: done workloads out of total,
// with a snapshot of the census so far. Calls are always serialized, and
// never run under the aggregation lock. In serial mode there is one
// synchronous call per completed workload; in parallel mode updates are
// delivered from a dedicated goroutine and COALESCED — a slow callback
// (e.g. a terminal printer) observes the latest census rather than
// queueing one call per workload, so it can never serialize the workers.
// The final completed-workload update is always delivered before Run
// returns.
type Progress func(done, total int, c Census)

// Option tunes a Run call.
type Option func(*runConfig)

type runConfig struct {
	workers  int
	stopOnce bool
	progress Progress
	// results, when set, receives each workload's engine Result at its
	// suite index — for the differential tests, which compare Results, not
	// censuses. Calls may be concurrent.
	results func(i int, res *core.Result)
}

func (rc runConfig) onResult(i int, res *core.Result) {
	if rc.results != nil {
		rc.results(i, res)
	}
}

// WithWorkers runs the suite across n worker goroutines — the in-process
// analogue of the paper's practice of splitting seq-2/seq-3 suites across
// 10-20 VMs (§4.2). Each workload's engine run is fully independent (own
// devices, own oracle), so parallelism is embarrassing. n <= 0 selects
// GOMAXPROCS; the default without this option is serial.
func WithWorkers(n int) Option {
	return func(rc *runConfig) { rc.workers = n }
}

// WithStopOnFirstBug stops the run after the first violating workload.
// Under WithWorkers, workloads already in flight still finish.
func WithStopOnFirstBug() Option {
	return func(rc *runConfig) { rc.stopOnce = true }
}

// WithProgress reports suite progress as workloads complete (see Progress
// for the delivery contract).
func WithProgress(fn Progress) Option {
	return func(rc *runConfig) { rc.progress = fn }
}

// notifier delivers progress callbacks for the parallel path from its own
// goroutine so the aggregation lock is never held across user code.
// Posts coalesce: only the latest pending update is kept, and the wake
// channel holds at most one token, so posting is non-blocking no matter
// how slow the callback is.
type notifier struct {
	fn      Progress
	total   int
	mu      sync.Mutex
	pending *progressUpdate
	wake    chan struct{}
	idle    chan struct{}
}

type progressUpdate struct {
	done int
	c    Census
}

func newNotifier(fn Progress, total int) *notifier {
	n := &notifier{fn: fn, total: total, wake: make(chan struct{}, 1), idle: make(chan struct{})}
	go n.loop()
	return n
}

// post records an update and nudges the delivery goroutine. Nil-safe
// (no WithProgress = no notifier) and safe under the aggregation lock's
// caller — but call it after unlocking anyway; it only takes its own
// micro-lock.
func (n *notifier) post(done int, c Census) {
	if n == nil {
		return
	}
	n.mu.Lock()
	n.pending = &progressUpdate{done: done, c: c}
	n.mu.Unlock()
	select {
	case n.wake <- struct{}{}:
	default: // a wake-up is already queued; it will see this update
	}
}

func (n *notifier) loop() {
	defer close(n.idle)
	for range n.wake {
		n.mu.Lock()
		u := n.pending
		n.pending = nil
		n.mu.Unlock()
		if u != nil {
			n.fn(u.done, n.total, u.c)
		}
	}
}

// stop drains and shuts the delivery goroutine down. Call only after all
// posts have happened (post-wg.Wait); every posted update is guaranteed
// delivered or superseded by a later one that is.
func (n *notifier) stop() {
	if n == nil {
		return
	}
	close(n.wake)
	<-n.idle
	// Belt and braces: a pending update can't survive the drain (a kept
	// pending implies a queued wake token), but deliver it if it did.
	n.mu.Lock()
	u := n.pending
	n.pending = nil
	n.mu.Unlock()
	if u != nil {
		n.fn(u.done, n.total, u.c)
	}
}

// Run executes a workload suite against a system configuration and
// aggregates statistics — the single entry point that replaced RunSuite and
// RunSuiteParallel. It fails fast on engine errors but accumulates
// violations (the caller decides what they mean). Violations are returned
// in suite order regardless of worker count.
//
// Cancelling ctx stops the run promptly; the partial census of workloads
// that completed is returned together with ctx's error.
//
// The suite's engine runs share one core.PrefixMemo, which lives for this
// call: a crash point inside an op prefix an earlier workload already
// checked is served from it instead of being checked again, with the same
// Result (core/memo.go has the argument, TestPrefixMemoMatchesUnshared the
// differential).
func Run(ctx context.Context, cfg core.Config, suite []workload.Workload, opts ...Option) (*Census, []core.Violation, error) {
	rc := runConfig{workers: 1}
	for _, o := range opts {
		o(&rc)
	}
	return rc.run(ctx, cfg, suite)
}

func (rc runConfig) run(ctx context.Context, cfg core.Config, suite []workload.Workload) (*Census, []core.Violation, error) {
	memo := core.NewPrefixMemo()
	workers := rc.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(suite) {
		workers = len(suite)
	}

	start := time.Now()
	agg := &aggregator{c: &Census{}}
	finalize := func(viol []core.Violation, err error) (*Census, []core.Violation, error) {
		agg.finish(time.Since(start))
		return agg.c, viol, err
	}

	if workers <= 1 {
		var viol []core.Violation
		for i, w := range suite {
			if err := ctx.Err(); err != nil {
				return finalize(viol, err)
			}
			res, err := memo.Run(ctx, cfg, w)
			if err != nil {
				if ctx.Err() != nil {
					return finalize(viol, ctx.Err())
				}
				return nil, nil, fmt.Errorf("workload %s: %w", w.Name, err)
			}
			rc.onResult(i, res)
			agg.add(res)
			viol = append(viol, res.Violations...)
			if rc.progress != nil {
				rc.progress(i+1, len(suite), *agg.c)
			}
			if rc.stopOnce && res.Buggy() {
				break
			}
		}
		return finalize(viol, nil)
	}

	// Parallel: workers pull workload indices; results are kept per index
	// and violations merged in suite order so the output is deterministic.
	// The census itself is all order-independent sums and maxima, so it is
	// folded as results land (progress and partial-cancel censuses see it).
	results := make([]*core.Result, len(suite))
	errs := make([]error, len(suite))
	var next int64
	var stop atomic.Bool
	var mu sync.Mutex // guards agg only; progress runs on the notifier goroutine
	var note *notifier
	if rc.progress != nil {
		note = newNotifier(rc.progress, len(suite))
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && !stop.Load() {
				j := int(atomic.AddInt64(&next, 1)) - 1
				if j >= len(suite) {
					return
				}
				res, err := memo.Run(ctx, cfg, suite[j])
				if err != nil {
					errs[j] = err
					if ctx.Err() == nil {
						stop.Store(true) // engine error: fail fast
					}
					continue
				}
				results[j] = res
				rc.onResult(j, res)
				mu.Lock()
				agg.add(res)
				done, snap := agg.c.Workloads, *agg.c
				mu.Unlock()
				note.post(done, snap)
				if rc.stopOnce && res.Buggy() {
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	note.stop()

	// Rebuild the quarantine ledger in suite order: add folded it in
	// completion order (fine for progress snapshots), but the final census
	// promises deterministic ordering regardless of worker count.
	var viol []core.Violation
	agg.c.Quarantined = nil
	for i, res := range results {
		if err := errs[i]; err != nil && ctx.Err() == nil {
			return nil, nil, fmt.Errorf("workload %s: %w", suite[i].Name, err)
		}
		if res != nil {
			viol = append(viol, res.Violations...)
			agg.c.Quarantined = append(agg.c.Quarantined, res.Quarantined...)
		}
	}
	return finalize(viol, ctx.Err())
}

// aggregator folds engine results into a Census.
type aggregator struct {
	c                      *Census
	inflightSum, inflightN int
}

func (a *aggregator) add(res *core.Result) {
	a.c.Workloads++
	a.c.StatesChecked += res.StatesChecked
	a.c.StatesDeduped += res.StatesDeduped
	a.c.TruncatedFences += res.TruncatedFences
	a.c.Fences += res.Fences
	if res.MaxInFlight > a.c.MaxInFlight {
		a.c.MaxInFlight = res.MaxInFlight
	}
	for n, cnt := range res.InFlightCounts {
		if n > 0 {
			a.inflightSum += n * cnt
			a.inflightN += cnt
		}
	}
	a.c.Violations += len(res.Violations)
	a.c.Quarantined = append(a.c.Quarantined, res.Quarantined...)
	a.c.SuppressedQuarantine += res.SuppressedQuarantine
	a.c.RetriedChecks += res.RetriedChecks
	if res.Obs != nil {
		if a.c.Obs == nil {
			a.c.Obs = &obs.Snapshot{}
		}
		a.c.Obs.Merge(*res.Obs)
	}
}

func (a *aggregator) finish(elapsed time.Duration) {
	a.c.InFlightSum, a.c.InFlightN = a.inflightSum, a.inflightN
	if a.inflightN > 0 {
		a.c.AvgInFlight = float64(a.inflightSum) / float64(a.inflightN)
	}
	a.c.Elapsed = elapsed
}
