package harness

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"chipmunk/internal/core"
	"chipmunk/internal/workload"
)

// Progress is the suite-progress callback: done workloads out of total,
// with a snapshot of the census's counts so far (its Obs is nil: the
// merged stage metrics arrive with the final census). The snapshot is the
// callback's own: Run never writes it afterwards, so the callback may keep
// it and read it after Run returns (done equals its Workloads). Calls are
// always serialized, and never run under the aggregation lock. In serial
// mode there is one synchronous call per completed workload; in parallel
// mode updates are delivered from a dedicated goroutine and COALESCED — a
// slow callback (e.g. a terminal printer) observes the latest census
// rather than queueing one call per workload, so it can never serialize
// the workers.
// The final completed-workload update is always delivered before Run
// returns.
type Progress func(done, total int, c Census)

// Option tunes a Run call.
type Option func(*runConfig)

type runConfig struct {
	workers  int
	stopOnce bool
	progress Progress
	memo     *core.PrefixMemo
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

// WithMemo runs the suite on m instead of a fresh core.PrefixMemo: a caller
// running one suite in pieces (a campaign worker's leases) shares it.
func WithMemo(m *core.PrefixMemo) Option {
	return func(rc *runConfig) { rc.memo = m }
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
	pending *Census
	wake    chan struct{}
	idle    chan struct{}
}

func newNotifier(fn Progress, total int) *notifier {
	n := &notifier{fn: fn, total: total, wake: make(chan struct{}, 1), idle: make(chan struct{})}
	go n.loop()
	return n
}

// post records an update and nudges the delivery goroutine. It only takes
// its own micro-lock, but call it after unlocking the aggregation lock
// anyway.
func (n *notifier) post(c Census) {
	n.mu.Lock()
	n.pending = &c
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
			n.fn(u.Workloads, n.total, *u)
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
		n.fn(u.Workloads, n.total, *u)
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
// The suite's runs share the work and the verdicts of their common op
// prefixes, with the same Result: Run walks the suite's op trie on one
// core.Chain per worker, which forks a run from the point an earlier one
// left at their shared prefix (core/fork.go), and one core.PrefixMemo
// serves the crash points of prefixes already checked (core/memo.go;
// TestPrefixMemoMatchesUnshared is the differential).
func Run(ctx context.Context, cfg core.Config, suite []workload.Workload, opts ...Option) (*Census, []core.Violation, error) {
	rc := runConfig{workers: 1}
	for _, o := range opts {
		o(&rc)
	}
	return rc.run(ctx, cfg, suite)
}

func (rc runConfig) run(ctx context.Context, cfg core.Config, suite []workload.Workload) (*Census, []core.Violation, error) {
	memo := rc.memo
	if memo == nil {
		memo = core.NewPrefixMemo()
	}
	workers := rc.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Units are a unitsPerWorker-th of each worker's share, so the last unit
	// leaves little idle tail; serially the whole suite; one position when
	// stopOnce puts workers on suite order.
	size := len(suite)
	if workers > 1 && rc.stopOnce {
		size = 1
	} else if workers > 1 {
		size = max(1, len(suite)/(unitsPerWorker*workers))
	}
	p := newPlan(suite, size, rc.stopOnce)
	workers = min(workers, p.Size())

	// Workers (serially, the caller) pull whole units of the plan onto their
	// own chains. The census is order-independent sums and maxima, folded as
	// results land; the violations and the quarantine ledger are rebuilt
	// from the results in suite order at the end.
	start := time.Now()
	census := &Census{}
	results := make([]*core.Result, len(suite))
	errs := make([]error, len(suite))
	var next atomic.Int64
	var stop atomic.Bool
	var mu sync.Mutex // guards census only; progress runs on the notifier goroutine
	var post func(Census)
	var note *notifier
	if rc.progress != nil && workers > 1 {
		note = newNotifier(rc.progress, len(suite))
		post = note.post
	} else if rc.progress != nil {
		post = func(c Census) { rc.progress(c.Workloads, len(suite), c) }
	}
	work := func() {
		c := memo.Chain(cfg)
		defer c.Close()
		for u := int(next.Add(1)) - 1; u < p.Size(); u = int(next.Add(1)) - 1 {
			for pos := p.Units[u]; pos < p.Units[u+1]; pos++ {
				if ctx.Err() != nil || stop.Load() {
					return
				}
				j := p.Order[pos]
				res, err := c.Run(ctx, suite[j], p.keep[pos])
				if err != nil {
					errs[j] = err
					stop.Store(true) // engine error: fail fast
					return
				}
				results[j] = res
				rc.onResult(j, res)
				mu.Lock()
				census.Add(res)
				var snap Census
				if post != nil {
					snap = detach(census)
				}
				mu.Unlock()
				if post != nil {
					post(snap)
				}
				if rc.stopOnce && res.Buggy() {
					stop.Store(true)
				}
			}
		}
	}
	if workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
		note.stop()
	}

	var viol []core.Violation
	census.Quarantined = nil
	for i, res := range results {
		if err := errs[i]; err != nil && ctx.Err() == nil {
			return nil, nil, fmt.Errorf("workload %s: %w", suite[i].Name, err)
		}
		if res != nil {
			viol = append(viol, res.Violations...)
			census.Quarantined = append(census.Quarantined, res.Quarantined...)
		}
	}
	census.Elapsed = time.Since(start)
	return census, viol, ctx.Err()
}

// detach returns the counts of c, which no later Add writes: the ledger's
// appends land past the copy's length, and the obs snapshot, which Add
// merges into in place, is left out.
func detach(c *Census) Census {
	d := *c
	d.Obs = nil
	return d
}

// unitsPerWorker is how many units newPlan cuts each worker's share of a
// suite into. A unit costs a Mkfs and its shallow prefix; one per worker
// share idles a worker behind the largest subtree (EXPERIMENTS.md §4.3).
const unitsPerWorker = 16

// Cut is the order Run executes a suite in: suite indices depth-first over
// its op trie, the positions Units[u]..Units[u+1] one worker's chain runs
// whole, and per position the op depths its chain keeps fork points at
// (core.Chain.Run). A campaign leases the units of one cut
// (internal/campaign).
type Cut struct {
	Order []int
	Units []int
	keep  [][]int
}

// NewCut cuts suite as Run does, into units of at most size positions.
func NewCut(suite []workload.Workload, size int) Cut { return newPlan(suite, size, false) }

// Size returns how many units the cut has.
func (c Cut) Size() int { return len(c.Units) - 1 }

// Unit returns unit u's workloads in suite order.
func (c Cut) Unit(suite []workload.Workload, u int) []workload.Workload {
	idx := slices.Clone(c.Order[c.Units[u]:c.Units[u+1]])
	slices.Sort(idx)
	unit := make([]workload.Workload, len(idx))
	for k, i := range idx {
		unit[k] = suite[i]
	}
	return unit
}

// newPlan orders the suite depth-first over its op trie, so each subtree
// of shared prefixes runs on one chain, one workload after another. Under
// stopOnce it keeps suite order, since "workloads to the first bug" counts
// in suite order; a workload then forks only from its predecessor's path,
// and under workers only from the root.
func newPlan(suite []workload.Workload, size int, stopOnce bool) Cut {
	p := Cut{Order: make([]int, len(suite)), keep: make([][]int, len(suite))}
	ids := map[workload.Op]int32{}
	seqs := make([][]int32, len(suite))
	var buf []int32
	for i, w := range suite {
		p.Order[i] = i
		for _, op := range w.Ops {
			id, ok := ids[op]
			if !ok {
				id = int32(len(ids))
				ids[op] = id
			}
			buf = append(buf, id)
		}
		seqs[i] = buf[len(buf)-len(w.Ops) : len(buf) : len(buf)]
	}
	if !stopOnce {
		slices.SortStableFunc(p.Order, func(a, b int) int { return slices.Compare(seqs[a], seqs[b]) })
	}
	// lcp[pos] is the op prefix positions pos-1 and pos share.
	lcp := make([]int, len(suite))
	for pos := 1; pos < len(suite); pos++ {
		a, b := seqs[p.Order[pos-1]], seqs[p.Order[pos]]
		for lcp[pos] < min(len(a), len(b)) && a[lcp[pos]] == b[lcp[pos]] {
			lcp[pos]++
		}
	}
	// Units are subtrees of at most size positions. A subtree too large
	// splits at its children, and adjacent children that fit together pack
	// into one unit, so a wide node of small subtrees does not explode into
	// one unit per child.
	p.Units = []int{0}
	// split closes the units of [lo,hi) but the last, and returns where that
	// open one starts: it packs on with the siblings after it.
	var split func(lo, hi int) int
	split = func(lo, hi int) int {
		if hi-lo <= size {
			return lo
		}
		d := slices.Min(lcp[lo+1 : hi])
		start := lo // the open pack of children [start, a)
		for a, b := lo, lo+1; a < hi; a, b = b, b+1 {
			for b < hi && lcp[b] != d {
				b++
			}
			if b-start <= size {
				continue
			}
			if a > start {
				p.Units = append(p.Units, a)
			}
			start = a
			if b-a > size {
				start = split(a, b)
			}
		}
		return start
	}
	split(0, len(suite))
	p.Units = append(p.Units, len(suite))
	// A position keeps a point at every depth a later position of its unit
	// forks at: the running minima of the shared prefixes after it.
	depths := []int{0}
	var keep []int
	for u := 0; u+1 < len(p.Units); u++ {
		depths = depths[:1]
		for pos := p.Units[u+1] - 1; pos >= p.Units[u]; pos-- {
			if pos+1 < p.Units[u+1] {
				for len(depths) > 1 && depths[len(depths)-1] >= lcp[pos+1] {
					depths = depths[:len(depths)-1]
				}
				depths = append(depths, lcp[pos+1])
			}
			keep = append(keep, depths...)
			p.keep[pos] = keep[len(keep)-len(depths) : len(keep) : len(keep)]
		}
	}
	return p
}
