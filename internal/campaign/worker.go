package campaign

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"chipmunk/internal/core"
	"chipmunk/internal/harness"
	"chipmunk/internal/lease"
	"chipmunk/internal/obs"
	"chipmunk/internal/workload"
)

// DefaultShardTimeout is the worker-side watchdog deadline for one shard's
// engine call (-shard-timeout): a shard that exceeds it is reported to the
// coordinator as a structured error payload instead of wedging the worker
// forever. Generous — a shard is DefaultShardSize small workloads — but
// finite, because the paper's weeks-long campaigns only work if no single
// target hang can pin a fleet slot.
const DefaultShardTimeout = 10 * time.Minute

// WorkerConfig configures RunWorker.
type WorkerConfig struct {
	// Addr is the coordinator's host:port.
	Addr string
	// ID names this worker in leases and per-worker stats (default:
	// hostname-pid).
	ID string
	// Jobs is the suite-level worker count within each shard (harness
	// WithWorkers; determinism holds for any value). Default 1.
	Jobs int
	// ShardTimeout is the per-shard engine watchdog (0 = DefaultShardTimeout,
	// negative = no watchdog). A tripped watchdog becomes a structured error
	// payload — one failed dispatch attempt on the coordinator, counting
	// toward the shard's quarantine budget.
	ShardTimeout time.Duration
	// DialBudget bounds the total retry time of each wire call
	// (0 = lease.DefaultDialBudget). Exhausting it at handshake fails RunWorker
	// with ErrCoordinatorGone; after the handshake it means the campaign is
	// over (completed, or crashed with its checkpoint safe) and the worker
	// exits cleanly.
	DialBudget time.Duration
	// Journal, when non-nil, receives this worker's run-journal events —
	// per-worker journals are merged afterwards with journaltool -merge.
	Journal *obs.Journal
	// Poll is the wait-state poll interval (default 300ms).
	Poll time.Duration
	// OnLease, when set, is called after each granted lease before the
	// shard runs — the hook kill-mid-shard tests use to die at a precise
	// point.
	OnLease func(LeaseResponse)
	// PoisonShards is the chaos hook behind -poison-shard: the engine call
	// panics for these shard ids, modeling a workload that crash-loops its
	// worker (OOM, SIGKILL, an engine bug escaping the check sandbox). The
	// worker's self-defense contains the panic into an error payload; the
	// coordinator quarantines the shard once its attempts are spent. Tests
	// and the CI chaos smoke use it; empty in production.
	PoisonShards []int
	// Logf, when set, receives one line per lease/result event.
	Logf func(format string, args ...any)

	// runEngine overrides the shard engine call in tests (slow shards,
	// hangs, deterministic failures). nil = harness.Run.
	runEngine func(ctx context.Context, cfg core.Config, slice []workload.Workload, lease LeaseResponse, jobs int) (*harness.Census, []core.Violation, error)
}

// RunWorker joins the campaign at wc.Addr and processes leases until the
// coordinator reports the campaign done (or draining), the context is
// cancelled, or an error is fatal. The fault-model contract is the lease
// engine's (internal/lease/worker.go).
func RunWorker(ctx context.Context, wc WorkerConfig) error {
	if wc.Jobs == 0 {
		wc.Jobs = 1
	}
	w := &lease.Worker{Addr: wc.Addr, ID: wc.ID, Poll: wc.Poll, DialBudget: wc.DialBudget,
		Timeout: wc.ShardTimeout, Logf: wc.Logf}
	w.Init(DefaultShardTimeout)

	// Handshake: fetch the spec, rebuild the suite locally, and verify the
	// fingerprint — a worker whose generator diverged must stop here, not
	// merge incomparable results.
	var info SpecInfo
	if err := lease.GetJSON(ctx, &http.Client{}, "http://"+wc.Addr+PathSpec, &info, w.DialBudget); err != nil {
		return fmt.Errorf("campaign: handshake with %s: %w", wc.Addr, err)
	}
	suite, err := info.Spec.BuildSuite()
	if err != nil {
		return fmt.Errorf("campaign: handshake: %w", err)
	}
	localHash := workload.FormatSuiteHash(workload.SuiteHash(suite))
	if localHash != info.SuiteHash {
		return fmt.Errorf(
			"campaign: suite fingerprint mismatch: coordinator %s has %s for %q (%d workloads), this worker generated %s (%d workloads) — binaries/generators differ, refusing to run",
			wc.Addr, info.SuiteHash, info.Spec.Suite, info.Workloads, localHash, len(suite))
	}
	opts, err := info.Spec.Options()
	if err != nil {
		return err
	}
	if info.Spec.Stats {
		opts.Obs = obs.New()
	}
	opts.Journal = wc.Journal
	sys, cfg, err := opts.Resolve()
	if err != nil {
		return err
	}
	w.Logf("worker %s joined campaign %s: %s suite %s (%d workloads, %d shards), fingerprint %s",
		w.ID, info.CampaignID, sys.Name, info.Spec.Suite, info.Workloads, info.Shards, info.SuiteHash)
	job := &shardJob{Worker: w, wc: wc, info: info, cfg: cfg, suite: suite}
	// Per-shard traces key off (suite hash, shard index): any worker that
	// runs shard k of this campaign emits the same trace ID, so a
	// re-dispatched shard's attempts land in one waterfall.
	job.traceSeed, _ = strconv.ParseUint(info.SuiteHash, 16, 64)
	return w.Work(ctx, "campaign", job)
}

// shardJob is the suite-shard side of the worker loop: the handshake's
// constants, then the shard currently held and what its run produced.
type shardJob struct {
	*lease.Worker
	wc        WorkerConfig
	info      SpecInfo
	cfg       core.Config
	suite     []workload.Workload
	traceSeed uint64

	held LeaseResponse
	// The shard's measurement trace: a "shard" span over the engine call,
	// with wire:lease/wire:heartbeat/wire:result children. These spans
	// measure the fleet (latency, retries), not the suite — they are never
	// part of the local span-determinism differential.
	tr     *obs.Tracer
	span   string
	sbegin time.Time
	// progress is the shard's live states-checked count, piggybacked on
	// heartbeats for the coordinator's dashboard.
	progress atomic.Int64
	census   *harness.Census
	viol     []core.Violation
}

func (j *shardJob) event(rank, states int) obs.Event {
	return obs.Event{Workload: j.info.Spec.Suite, Worker: j.ID, Sys: -1, Rank: rank, States: states}
}

func (j *shardJob) Lease(ctx context.Context) (lease.Poll, time.Duration, error) {
	var lstart time.Time
	if j.wc.Journal != nil {
		lstart = time.Now()
	}
	var l LeaseResponse
	if err := j.Post(ctx, PathLease, LeaseRequest{Worker: j.ID, SuiteHash: j.info.SuiteHash}, &l, 0); err != nil {
		return 0, 0, fmt.Errorf("campaign: lease: %w", err)
	}
	switch l.Status {
	case LeaseDone:
		return lease.PollDone, 0, nil
	case LeaseWait:
		return lease.PollWait, 0, nil
	case LeaseGranted:
	default:
		// The coordinator emits three fixed strings.
		j.Logf("worker %s: unknown lease status %q; discarding (corrupt response?)", j.ID, l.Status)
		return lease.PollWait, 0, nil
	}
	if j.wc.OnLease != nil {
		j.wc.OnLease(l)
	}
	// Geometry check: the slice bounds are fully determined by (shard id,
	// shard size, suite length), all known since the handshake, so a lease
	// response corrupted in flight — a flipped bit in shard, start, or end
	// — cannot make the worker silently run the wrong slice.
	wantStart, wantEnd := shardRange(l.Shard, j.info.ShardSize, len(j.suite))
	if l.Shard < 0 || l.Shard >= j.info.Shards || l.Start != wantStart || l.End != wantEnd {
		j.Logf("worker %s: lease shard %d [%d,%d) fails geometry check (want [%d,%d)); discarding (corrupt response?)",
			j.ID, l.Shard, l.Start, l.End, wantStart, wantEnd)
		return lease.PollAgain, 0, nil
	}
	j.Logf("worker %s: running shard %d [%d,%d)", j.ID, l.Shard, l.Start, l.End)
	j.held, j.census, j.viol = l, nil, nil
	j.progress.Store(0)
	j.tr = obs.NewTracer(j.wc.Journal, j.traceSeed, l.Shard)
	j.span = j.tr.ID("shard", j.info.Spec.Suite, 0, l.Shard)
	j.tr.Span("wire:lease", lstart, j.span, j.event(l.Shard, 0))
	return lease.PollRun, time.Duration(l.TTLNanos), nil
}

func (j *shardJob) Beat(ctx context.Context, budget time.Duration, n int) (bool, error) {
	hstart := j.tr.Begin()
	var hb HeartbeatResponse
	err := j.Post(ctx, PathHeartbeat, HeartbeatRequest{Worker: j.ID, Shard: j.held.Shard,
		SuiteHash: j.info.SuiteHash, StatesChecked: int(j.progress.Load())}, &hb, budget)
	if err != nil {
		return false, err
	}
	j.tr.Span("wire:heartbeat", hstart, j.span, j.event(n, 0))
	if !hb.Extended {
		j.wc.Journal.Emit(obs.Event{
			Type: "heartbeat-refused", FS: j.info.Spec.FS, Workload: j.info.Spec.Suite,
			Worker: j.ID, Sys: -1, Rank: j.held.Shard,
			Detail: "coordinator refused lease extension (expired, re-dispatched, or quarantined); abandoning shard",
		})
	}
	return hb.Extended, nil
}

func (j *shardJob) Run(ctx context.Context) (err error) {
	j.sbegin = j.tr.Begin()
	for _, p := range j.wc.PoisonShards {
		if p == j.held.Shard {
			panic(fmt.Sprintf("chaos: poisoned shard %d", j.held.Shard))
		}
	}
	slice := j.suite[j.held.Start:j.held.End]
	if j.wc.runEngine != nil {
		j.census, j.viol, err = j.wc.runEngine(ctx, j.cfg, slice, j.held, j.wc.Jobs)
		return err
	}
	j.census, j.viol, err = harness.Run(ctx, j.cfg, slice, harness.WithWorkers(j.wc.Jobs),
		harness.WithProgress(func(done, total int, c harness.Census) {
			j.progress.Store(int64(c.StatesChecked))
		}))
	return err
}

// Report freezes the shard's outcome into a payload — engine errors,
// contained panics and tripped watchdogs carry Err: one failed dispatch
// attempt, counted toward the shard's quarantine budget — and posts it.
func (j *shardJob) Report(ctx context.Context, o lease.RunOutcome, runErr error) (bool, error) {
	shard := j.held.Shard
	payload := &ShardPayload{Shard: shard, Worker: j.ID, SuiteHash: j.info.SuiteHash}
	detail := ""
	switch o {
	case lease.RunOK:
		payload = NewShardPayload(shard, j.ID, j.info.SuiteHash, j.census, j.viol)
	case lease.RunLost:
		detail = "abandoned: lease lost mid-run"
	case lease.RunWatchdog:
		payload.Err = fmt.Sprintf("shard watchdog: engine exceeded -shard-timeout %v", j.Timeout)
		detail = payload.Err
		j.wc.Journal.Emit(obs.Event{
			Type: "shard-watchdog", FS: j.info.Spec.FS, Workload: j.info.Spec.Suite,
			Worker: j.ID, Sys: -1, Rank: shard, Detail: detail,
		})
	default:
		payload.Err = runErr.Error()
		detail = "error: " + payload.Err
	}
	e := j.event(shard, 0)
	e.FS, e.Detail = j.info.Spec.FS, detail
	if j.census != nil {
		e.States, e.Fences, e.Violations = j.census.StatesChecked, j.census.Fences, j.census.Violations
	}
	j.tr.Span("shard", j.sbegin, "", e)
	if o == lease.RunLost {
		return false, nil
	}
	payload.Sum = PayloadSum(payload)
	rstart := j.tr.Begin()
	var credit CreditResponse
	err := j.Post(ctx, PathResult, payload, &credit, 0)
	j.tr.Span("wire:result", rstart, j.span, j.event(shard, payload.StatesChecked))
	if err != nil {
		return false, fmt.Errorf("campaign: result: %w", err)
	}
	switch {
	case payload.Err != "" && credit.Quarantined:
		j.Logf("worker %s: shard %d failed (%s) and was QUARANTINED by the coordinator", j.ID, shard, payload.Err)
	case payload.Err != "":
		j.Logf("worker %s: shard %d failed (%s); coordinator will re-dispatch", j.ID, shard, payload.Err)
	case credit.Quarantined:
		j.Logf("worker %s: shard %d result discarded (shard already quarantined)", j.ID, shard)
	case credit.Duplicate:
		j.Logf("worker %s: shard %d was already credited (re-dispatched past our lease)", j.ID, shard)
	case credit.Accepted:
		j.Logf("worker %s: shard %d credited", j.ID, shard)
	}
	return credit.Done, nil
}

// ErrCoordinatorGone marks a wire call whose whole retry budget was spent on
// transport errors; see lease.ErrCoordinatorGone.
var ErrCoordinatorGone = lease.ErrCoordinatorGone
