package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"chipmunk/internal/core"
	"chipmunk/internal/harness"
	"chipmunk/internal/obs"
	"chipmunk/internal/workload"
)

// DefaultShardSize is how many workloads one lease covers. Coarse enough
// that per-shard HTTP and checkpoint overhead is noise, fine enough that a
// lost worker forfeits little work and stragglers rebalance.
const DefaultShardSize = 32

// DefaultLeaseTTL is how long a worker holds a shard before the
// coordinator assumes it died and re-dispatches. With heartbeats extending
// live leases, an expiry means the worker is actually gone, so the TTL can
// stay conservative without losing long shards.
const DefaultLeaseTTL = 2 * time.Minute

// DefaultShardRetries is how many failed dispatch attempts (lease expiry,
// structured error payload, rejected result) a shard gets before it is
// quarantined instead of re-dispatched (-shard-retries).
const DefaultShardRetries = 3

// CoordinatorConfig configures NewCoordinator.
type CoordinatorConfig struct {
	Spec      Spec
	ShardSize int           // 0 = DefaultShardSize
	LeaseTTL  time.Duration // 0 = DefaultLeaseTTL
	// ShardRetries bounds failed dispatch attempts per shard before it is
	// quarantined (0 = DefaultShardRetries). A shard that crash-loops its
	// worker — OOM, SIGKILL, an engine panic that escapes the check sandbox
	// — degrades the campaign instead of stalling or failing it.
	ShardRetries int
	// CheckpointPath, when set, appends credited shards to this file and
	// — when the file already records shards of this same campaign —
	// resumes by skipping them ("-resume").
	CheckpointPath string
	// RetryQuarantined re-runs the shards the checkpoint records as
	// quarantined instead of carrying them forward ("-retry-quarantined"):
	// their attempt budgets reset and they are leased out again.
	RetryQuarantined bool
	// Progress, when set, is called after every credited shard with the
	// folded census so far (drives the -debug-addr /progress view).
	Progress func(doneWorkloads, totalWorkloads int, c harness.Census)
	// Journal, when non-nil, receives one "shard-quarantine" event per
	// quarantined shard — the campaign-layer mirror of the per-check
	// quarantine events the engine emits.
	Journal *obs.Journal
	// Logf, when set, receives one line per lease/credit/expiry event.
	Logf func(format string, args ...any)
}

type shardState uint8

const (
	shardPending shardState = iota
	shardLeased
	shardDone
	shardQuarantined
)

type shardSlot struct {
	start, end int
	state      shardState
	worker     string
	deadline   time.Time
	payload    *ShardPayload
	// attempts counts failed dispatch attempts. lastErr describes the one
	// the quarantine ledger will cite and errWorker the worker it happened
	// on; errFromWorker says it came from a worker's error payload (see
	// failAttemptLocked for which attempt is cited).
	attempts      int
	lastErr       string
	errWorker     string
	errFromWorker bool
	// leasedAt stamps the current lease grant (feeds the shard-lease span
	// and the dashboard's in-flight age); lastBeat is the most recent
	// heartbeat for this lease, and progress the states-checked count it
	// piggybacked (live only while leased — reset on each grant).
	leasedAt time.Time
	lastBeat time.Time
	progress int
}

// Stats summarizes the campaign's control-plane history.
type Stats struct {
	Shards int
	Done   int
	// Resumed counts shards credited from the checkpoint at startup,
	// Redispatched lease expiries, Duplicates at-most-once discards, and
	// Rejected fingerprint-mismatch requests.
	Resumed      int
	Redispatched int
	Duplicates   int
	Rejected     int
	// ShardsQuarantined counts shards in the shard-quarantine ledger
	// (including ones carried forward from the checkpoint); a nonzero value
	// means the campaign completed degraded. BadPayloads counts result
	// bodies rejected at the wire (truncated, corrupt, checksum mismatch);
	// Heartbeats counts granted lease extensions.
	ShardsQuarantined int
	BadPayloads       int
	Heartbeats        int
	// PerWorker counts shards credited per worker ID (checkpoint resumes
	// appear under "checkpoint").
	PerWorker map[string]int
}

// Coordinator owns a campaign: the sharded suite, the lease state machine,
// the at-most-once credit ledger, and the checkpoint. It is an
// http.Handler serving the campaign wire protocol.
type Coordinator struct {
	info         SpecInfo
	leaseTTL     time.Duration
	shardRetries int
	progress     func(done, total int, c harness.Census)
	journal      *obs.Journal
	// tracer emits "shard-lease" spans (one per credited shard, spanning
	// lease grant to credit) under the campaign's coordinates: seed = suite
	// hash, shard index -1. Nil when no journal is attached.
	tracer  *obs.Tracer
	started time.Time
	logf    func(format string, args ...any)
	mux     *http.ServeMux

	mu           sync.Mutex
	shards       []shardSlot
	remaining    int
	draining     bool
	failed       error
	ckpt         *Checkpoint
	resumed      int
	redispatched int
	duplicates   int
	rejected     int
	badPayloads  int
	heartbeats   int
	perWorker    map[string]int
	// workers maps worker ID to the last moment it was heard from (lease,
	// heartbeat, or result) — the dashboard's liveness column.
	workers map[string]time.Time

	doneOnce sync.Once
	doneCh   chan struct{}
}

// NewCoordinator builds the campaign: generates the suite, fingerprints
// it, shards it, and — when CheckpointPath names a file recording this
// same campaign — folds the already-completed shards back in so only the
// rest are leased out.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	suite, err := cfg.Spec.BuildSuite()
	if err != nil {
		return nil, err
	}
	if len(suite) == 0 {
		return nil, fmt.Errorf("campaign: empty suite %q", cfg.Spec.Suite)
	}
	shardSize := cfg.ShardSize
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	ttl := cfg.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	retries := cfg.ShardRetries
	if retries <= 0 {
		retries = DefaultShardRetries
	}
	hash := workload.FormatSuiteHash(workload.SuiteHash(suite))
	n := numShards(len(suite), shardSize)
	info := SpecInfo{
		CampaignID: campaignID(cfg.Spec, hash),
		Spec:       cfg.Spec,
		SuiteHash:  hash,
		Shards:     n,
		ShardSize:  shardSize,
		Workloads:  len(suite),
	}
	c := &Coordinator{
		info:         info,
		leaseTTL:     ttl,
		shardRetries: retries,
		progress:     cfg.Progress,
		journal:      cfg.Journal,
		started:      time.Now(),
		logf:         cfg.Logf,
		shards:       make([]shardSlot, n),
		remaining:    n,
		perWorker:    map[string]int{},
		workers:      map[string]time.Time{},
		doneCh:       make(chan struct{}),
	}
	if cfg.Journal != nil {
		// The campaign traces under (suite hash, shard -1): deterministic for
		// a given campaign, distinct from every worker's per-shard traces.
		seed, _ := strconv.ParseUint(hash, 16, 64)
		c.tracer = obs.NewTracer(cfg.Journal, seed, -1)
	}
	for i := range c.shards {
		c.shards[i].start, c.shards[i].end = shardRange(i, shardSize, len(suite))
	}
	mux := http.NewServeMux()
	mux.HandleFunc(PathSpec, c.handleSpec)
	mux.HandleFunc(PathLease, c.handleLease)
	mux.HandleFunc(PathResult, c.handleResult)
	mux.HandleFunc(PathHeartbeat, c.handleHeartbeat)
	mux.HandleFunc(PathStatus, c.handleStatus)
	mux.HandleFunc(PathDash, c.handleDash)
	mux.HandleFunc("/debug/metrics", c.handleMetrics)
	c.mux = mux

	if cfg.CheckpointPath != "" {
		if err := c.attachCheckpoint(cfg.CheckpointPath, cfg.RetryQuarantined); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func campaignID(spec Spec, suiteHash string) string {
	h := fnv.New64a()
	b, _ := json.Marshal(spec)
	h.Write(b)
	h.Write([]byte(suiteHash))
	return fmt.Sprintf("c%016x", h.Sum64())
}

func (c *Coordinator) attachCheckpoint(path string, retryQuarantined bool) error {
	st, err := LoadCheckpoint(path)
	if err != nil {
		return err
	}
	if err := st.Validate(c.info); err != nil {
		return err
	}
	if st.Skipped > 0 {
		c.log("checkpoint: skipped %d corrupt/torn lines in %s", st.Skipped, path)
	}
	for _, p := range st.Payloads {
		if p.SuiteHash != c.info.SuiteHash || p.Shard < 0 || p.Shard >= len(c.shards) {
			c.log("checkpoint: ignoring foreign shard record (shard %d, hash %s)", p.Shard, p.SuiteHash)
			continue
		}
		slot := &c.shards[p.Shard]
		if slot.state == shardDone {
			continue
		}
		slot.state = shardDone
		slot.payload = p
		c.remaining--
		c.resumed++
		c.perWorker["checkpoint"]++
	}
	// Quarantine records: a credit anywhere in the file wins (the shard was
	// eventually checked, e.g. by a prior -retry-quarantined run); otherwise
	// the shard carries its quarantine forward — never re-credited, never
	// silently re-run — unless this run asks to retry it.
	requeued := 0
	for _, q := range st.Quarantined {
		if q.SuiteHash != "" && q.SuiteHash != c.info.SuiteHash {
			c.log("checkpoint: ignoring foreign quarantine record (shard %d, hash %s)", q.Shard, q.SuiteHash)
			continue
		}
		if q.Shard < 0 || q.Shard >= len(c.shards) {
			c.log("checkpoint: ignoring out-of-range quarantine record (shard %d)", q.Shard)
			continue
		}
		slot := &c.shards[q.Shard]
		if slot.state == shardDone {
			continue // later credited: done wins
		}
		if retryQuarantined {
			if slot.state == shardQuarantined {
				slot.state = shardPending
				c.remaining++
			}
			slot.attempts, slot.lastErr, slot.errWorker, slot.errFromWorker = 0, "", "", false
			requeued++
			continue
		}
		if slot.state != shardQuarantined {
			c.remaining--
		}
		slot.state = shardQuarantined
		slot.errWorker = q.Worker
		slot.attempts = q.Attempts
		slot.lastErr = q.Err
	}
	fresh := st.Header == nil
	ck, err := OpenCheckpoint(path, c.info, fresh)
	if err != nil {
		return err
	}
	c.ckpt = ck
	if c.resumed > 0 {
		c.log("checkpoint: resumed %d/%d shards from %s", c.resumed, len(c.shards), path)
	}
	if n := c.quarantinedLocked(); n > 0 {
		c.log("checkpoint: carrying %d quarantined shards forward (re-run them with -retry-quarantined)", n)
	}
	if requeued > 0 {
		c.log("checkpoint: re-queued %d quarantined shards for retry", requeued)
	}
	if c.remaining == 0 {
		c.complete()
	}
	return nil
}

// quarantinedLocked counts quarantined shards. Caller holds c.mu (or owns
// the coordinator exclusively, as during construction).
func (c *Coordinator) quarantinedLocked() int {
	n := 0
	for i := range c.shards {
		if c.shards[i].state == shardQuarantined {
			n++
		}
	}
	return n
}

// Info returns the campaign identity served on handshake.
func (c *Coordinator) Info() SpecInfo { return c.info }

func (c *Coordinator) log(format string, args ...any) {
	if c.logf != nil {
		c.logf(format, args...)
	}
}

func (c *Coordinator) complete() {
	c.doneOnce.Do(func() { close(c.doneCh) })
}

// reclaimLocked reverts expired leases to pending so the next lease
// request re-dispatches them. Each expiry is a failed dispatch attempt:
// with heartbeats extending live leases, expiry means the worker is gone,
// and a shard whose attempts are spent is quarantined. Caller holds c.mu.
func (c *Coordinator) reclaimLocked(now time.Time) {
	for i := range c.shards {
		s := &c.shards[i]
		if s.state == shardLeased && now.After(s.deadline) {
			c.failAttemptLocked(i, s.worker, false, "lease expired (worker gone or stalled)")
		}
	}
}

// failAttemptLocked records one failed dispatch attempt for a leased shard
// — lease expiry, structured error payload, or rejected result — and either
// reverts it to pending for re-dispatch or, once the attempt budget is
// spent, quarantines it. Caller holds c.mu.
//
// Which attempt the ledger cites: a transport cause — the lease ran out, the
// result was rejected at the wire — says only that the attempt was lost,
// while a worker's error payload (fromWorker) says the shard itself failed
// under a live worker. So a payload's cause is never replaced by a later
// transport one; otherwise the latest attempt wins. Which of a poisoned
// shard's attempts happened to lose its payload to wire noise then does not
// decide what the quarantine entry says.
func (c *Coordinator) failAttemptLocked(i int, worker string, fromWorker bool, cause string) {
	s := &c.shards[i]
	s.attempts++
	if fromWorker || !s.errFromWorker {
		s.lastErr, s.errWorker, s.errFromWorker = cause, worker, fromWorker
	}
	if s.attempts >= c.shardRetries {
		c.quarantineLocked(i)
		return
	}
	c.log("shard %d attempt %d/%d failed (worker %s): %s — re-dispatching",
		i, s.attempts, c.shardRetries, worker, cause)
	s.state = shardPending
	c.redispatched++
}

// quarantineLocked moves a shard to the quarantine ledger: removed from the
// campaign (never re-credited), persisted in the checkpoint, journaled, and
// reported — never silent, never fatal. Caller holds c.mu.
func (c *Coordinator) quarantineLocked(i int) {
	s := &c.shards[i]
	s.state = shardQuarantined
	c.remaining--
	q := c.quarantineEntryLocked(i)
	c.log("shard QUARANTINED: %s", q)
	c.journal.Emit(obs.Event{
		Type: "shard-quarantine", FS: c.info.Spec.FS, Workload: c.info.Spec.Suite,
		Sys: -1, Rank: i, States: s.end - s.start, Detail: q.String(),
	})
	if err := c.ckpt.AppendQuarantine(q); err != nil {
		// Same contract as shard credits: a checkpoint that silently stops
		// recording is worse than a failed campaign — resume would re-run
		// shards it believes missing.
		if c.failed == nil {
			c.failed = err
		}
	}
	if c.remaining == 0 || c.failed != nil {
		// complete only closes a channel (sync.Once); safe under c.mu.
		c.complete()
	}
}

// quarantineEntryLocked renders shard i's ledger entry. Caller holds c.mu.
func (c *Coordinator) quarantineEntryLocked(i int) ShardQuarantine {
	s := &c.shards[i]
	return ShardQuarantine{
		Shard: i, Start: s.start, End: s.end, SuiteHash: c.info.SuiteHash,
		Worker: s.errWorker, Err: s.lastErr, Attempts: s.attempts,
	}
}

// Quarantined returns the shard-quarantine ledger in shard order.
func (c *Coordinator) Quarantined() []ShardQuarantine {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []ShardQuarantine
	for i := range c.shards {
		if c.shards[i].state == shardQuarantined {
			out = append(out, c.quarantineEntryLocked(i))
		}
	}
	return out
}

// Degraded reports whether the campaign carries quarantined shards: its
// census is partial (the quarantined slices went unchecked) and the CLI
// exits with the distinct degraded code so CI can tell "degraded" from
// "failed".
func (c *Coordinator) Degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.quarantinedLocked() > 0
}

func (c *Coordinator) leasedLocked() int {
	n := 0
	for i := range c.shards {
		if c.shards[i].state == shardLeased {
			n++
		}
	}
	return n
}

// Lease hands the lowest-numbered pending shard to a worker, or tells it
// to wait (everything in flight) or exit (done, draining, or failed).
func (c *Coordinator) Lease(req LeaseRequest) (LeaseResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.SuiteHash != c.info.SuiteHash {
		c.rejected++
		return LeaseResponse{}, fmt.Errorf(
			"suite fingerprint mismatch: coordinator has %s, worker %q sent %s — generators differ, refusing to merge incomparable results",
			c.info.SuiteHash, req.Worker, req.SuiteHash)
	}
	if c.draining || c.failed != nil || c.remaining == 0 {
		return LeaseResponse{Status: LeaseDone}, nil
	}
	c.reclaimLocked(time.Now())
	c.workers[req.Worker] = time.Now()
	for i := range c.shards {
		s := &c.shards[i]
		if s.state != shardPending {
			continue
		}
		now := time.Now()
		s.state = shardLeased
		s.worker = req.Worker
		s.deadline = now.Add(c.leaseTTL)
		s.leasedAt = now
		s.lastBeat = now
		s.progress = 0
		c.log("lease: shard %d [%d,%d) -> %s (ttl %v)", i, s.start, s.end, req.Worker, c.leaseTTL)
		return LeaseResponse{
			Status: LeaseGranted, Shard: i, Start: s.start, End: s.end,
			TTLNanos: int64(c.leaseTTL),
		}, nil
	}
	return LeaseResponse{Status: LeaseWait}, nil
}

// Credit records one shard result, at most once per (shard id, suite
// fingerprint): a resurrected slow worker whose lease expired and whose
// shard was re-run elsewhere gets Duplicate, and its payload is discarded
// — the two payloads are byte-identical by the determinism contract, but
// counting both would double-credit the shard.
func (c *Coordinator) Credit(p *ShardPayload) (CreditResponse, error) {
	c.mu.Lock()
	if p.SuiteHash != c.info.SuiteHash {
		c.rejected++
		c.mu.Unlock()
		return CreditResponse{}, fmt.Errorf(
			"suite fingerprint mismatch: coordinator has %s, worker %q sent %s — discarding result",
			c.info.SuiteHash, p.Worker, p.SuiteHash)
	}
	if p.Shard < 0 || p.Shard >= len(c.shards) {
		c.rejected++
		c.mu.Unlock()
		return CreditResponse{}, fmt.Errorf("shard %d out of range [0,%d)", p.Shard, len(c.shards))
	}
	slot := &c.shards[p.Shard]
	if p.Err != "" {
		// A structured error payload — engine error, contained worker panic,
		// tripped shard watchdog — is one failed dispatch attempt. The shard
		// is re-dispatched until its attempt budget is spent, then
		// quarantined; the campaign never fails or loops on one bad shard.
		if slot.state != shardLeased || slot.worker != p.Worker {
			// Stale: the lease already expired (that attempt was counted at
			// reclaim) or the shard moved on. Discard.
			c.mu.Unlock()
			c.log("stale error payload for shard %d from %s: discarded", p.Shard, p.Worker)
			return CreditResponse{Accepted: false, Duplicate: true}, nil
		}
		c.failAttemptLocked(p.Shard, p.Worker, true, p.Err)
		quarantined := slot.state == shardQuarantined
		done := c.remaining == 0
		c.mu.Unlock()
		return CreditResponse{Accepted: false, Quarantined: quarantined, Done: done}, nil
	}
	if slot.state == shardQuarantined {
		// Never credit a quarantined shard: the ledger says its slice went
		// unchecked, and a shard must never be both credited and
		// quarantined. (A healthy late result can land here when earlier
		// attempts spent the budget; re-run it with -retry-quarantined.)
		c.duplicates++
		c.mu.Unlock()
		c.log("result for quarantined shard %d from %s: discarded", p.Shard, p.Worker)
		return CreditResponse{Accepted: false, Duplicate: true, Quarantined: true}, nil
	}
	if slot.state == shardDone {
		c.duplicates++
		c.mu.Unlock()
		c.log("duplicate result for shard %d from %s: discarded", p.Shard, p.Worker)
		return CreditResponse{Accepted: false, Duplicate: true}, nil
	}
	if slot.payload != nil {
		// Unreachable (payload is only set with state=done), but never
		// let an invariant break double-count silently.
		c.mu.Unlock()
		return CreditResponse{}, fmt.Errorf("shard %d: payload already recorded", p.Shard)
	}
	slot.state = shardDone
	slot.worker = p.Worker
	slot.payload = p
	c.remaining--
	c.perWorker[p.Worker]++
	c.workers[p.Worker] = time.Now()
	// One measurement span per credited shard, spanning lease grant to
	// credit: the campaign-side view of shard latency (includes wire and
	// queueing time the worker's own "shard" span cannot see).
	c.tracer.Span("shard-lease", slot.leasedAt, "", obs.Event{
		FS: c.info.Spec.FS, Workload: c.info.Spec.Suite, Worker: p.Worker,
		Sys: -1, Rank: p.Shard, States: p.StatesChecked,
	})
	done := c.remaining == 0
	doneCount := len(c.shards) - c.remaining
	if err := c.ckpt.AppendShard(p); err != nil {
		// A checkpoint that silently stops recording is worse than a
		// failed campaign: resume would rerun shards it believes missing.
		if c.failed == nil {
			c.failed = err
		}
		c.mu.Unlock()
		c.complete()
		return CreditResponse{Accepted: false, Done: true}, nil
	}
	c.mu.Unlock()
	c.log("credit: shard %d from %s (%d/%d done)", p.Shard, p.Worker, doneCount, len(c.shards))

	if c.progress != nil {
		cen, _ := c.Merged()
		c.progress(cen.Workloads, c.info.Workloads, *cen)
	}
	if done {
		c.complete()
	}
	return CreditResponse{Accepted: true, Done: done}, nil
}

// Merged folds the credited shards, in shard order, into the campaign
// census so far. Quarantined shards contribute nothing (their slices went
// unchecked); their count lands in the census obs snapshot under the
// measurement-class "shards-quarantined" counter, which Fingerprint
// excludes — the census over the healthy shards stays byte-identical to a
// serial run over the same slices.
func (c *Coordinator) Merged() (*harness.Census, []core.Violation) {
	c.mu.Lock()
	payloads := make([]*ShardPayload, 0, len(c.shards))
	for i := range c.shards {
		if c.shards[i].state == shardDone {
			payloads = append(payloads, c.shards[i].payload)
		}
	}
	quarantined := c.quarantinedLocked()
	c.mu.Unlock()
	cen, viol := Fold(payloads)
	if quarantined > 0 {
		if cen.Obs == nil {
			cen.Obs = &obs.Snapshot{}
		}
		if cen.Obs.Counters == nil {
			cen.Obs.Counters = make(map[string]int64, 1)
		}
		cen.Obs.Counters[obs.CtrShardsQuarantined.String()] = int64(quarantined)
	}
	return cen, viol
}

// Heartbeat extends a live lease (POST /campaign/heartbeat). Extension is
// granted only when the shard is still leased to the requesting worker;
// otherwise the worker learns it lost the lease and should abandon the
// shard.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.SuiteHash != c.info.SuiteHash {
		c.rejected++
		return HeartbeatResponse{}, fmt.Errorf(
			"suite fingerprint mismatch: coordinator has %s, worker %q sent %s — refusing heartbeat",
			c.info.SuiteHash, req.Worker, req.SuiteHash)
	}
	if req.Shard < 0 || req.Shard >= len(c.shards) {
		return HeartbeatResponse{}, fmt.Errorf("shard %d out of range [0,%d)", req.Shard, len(c.shards))
	}
	c.workers[req.Worker] = time.Now()
	s := &c.shards[req.Shard]
	if s.state != shardLeased || s.worker != req.Worker || time.Now().After(s.deadline) {
		return HeartbeatResponse{Extended: false}, nil
	}
	now := time.Now()
	s.deadline = now.Add(c.leaseTTL)
	s.lastBeat = now
	if req.StatesChecked > s.progress {
		s.progress = req.StatesChecked
	}
	c.heartbeats++
	return HeartbeatResponse{Extended: true, TTLNanos: int64(c.leaseTTL)}, nil
}

// RejectResult records a result payload rejected at the wire (truncated
// body, corrupt JSON, checksum mismatch) as a failed dispatch attempt when
// the claimed (shard, worker) identity matches a live lease — the shard is
// re-dispatched promptly instead of waiting out the lease. When the
// identity itself is implausible (corrupted, foreign, or stale) only the
// bad-payload counter moves; lease expiry covers the shard.
func (c *Coordinator) RejectResult(shard int, worker, cause string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.badPayloads++
	if shard < 0 || shard >= len(c.shards) {
		return
	}
	s := &c.shards[shard]
	if s.state != shardLeased || s.worker != worker {
		return
	}
	c.failAttemptLocked(shard, worker, false, cause)
}

// Stats snapshots the control-plane counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	per := make(map[string]int, len(c.perWorker))
	for k, v := range c.perWorker {
		per[k] = v
	}
	done := 0
	for i := range c.shards {
		if c.shards[i].state == shardDone {
			done++
		}
	}
	return Stats{
		Shards:            len(c.shards),
		Done:              done,
		Resumed:           c.resumed,
		Redispatched:      c.redispatched,
		Duplicates:        c.duplicates,
		Rejected:          c.rejected,
		ShardsQuarantined: c.quarantinedLocked(),
		BadPayloads:       c.badPayloads,
		Heartbeats:        c.heartbeats,
		PerWorker:         per,
	}
}

// Drain stops issuing new leases; in-flight shards may still report and
// be credited (and checkpointed) until their deadlines expire.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
}

// Wait blocks until the campaign completes, fails, or ctx is cancelled.
// Cancellation is the graceful path (first SIGINT): the coordinator stops
// issuing leases, keeps crediting in-flight shards to the checkpoint until
// they report or their leases expire, and returns the partial census with
// ctx's error.
func (c *Coordinator) Wait(ctx context.Context) (*harness.Census, []core.Violation, error) {
	select {
	case <-c.doneCh:
		return c.finish(nil)
	case <-ctx.Done():
	}
	c.Drain()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-c.doneCh:
			return c.finish(nil)
		case <-tick.C:
			c.mu.Lock()
			c.reclaimLocked(time.Now())
			leased := c.leasedLocked()
			c.mu.Unlock()
			if leased == 0 {
				return c.finish(ctx.Err())
			}
		}
	}
}

func (c *Coordinator) finish(err error) (*harness.Census, []core.Violation, error) {
	c.mu.Lock()
	failed := c.failed
	c.mu.Unlock()
	if failed != nil {
		return nil, nil, failed
	}
	cen, viol := c.Merged()
	return cen, viol, err
}

// Close releases the checkpoint file handle.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	ck := c.ckpt
	c.ckpt = nil
	c.mu.Unlock()
	return ck.Close()
}

// --- HTTP surface -------------------------------------------------------

// Wire paths. Workers GET the spec once (handshake), then loop
// POST lease -> run shard (heartbeating) -> POST result.
const (
	PathSpec      = "/campaign/spec"
	PathLease     = "/campaign/lease"
	PathResult    = "/campaign/result"
	PathHeartbeat = "/campaign/heartbeat"
	// PathStatus and PathDash are the read-only observability surface:
	// PathStatus serves the live JSON shard map (dashboards, scripts, the CI
	// smoke), PathDash a stdlib-only auto-refreshing HTML view of the same
	// snapshot. Neither mutates campaign state.
	PathStatus = "/campaign/status"
	PathDash   = "/campaign/dash"
)

// maxResultBody bounds one shard-result POST; aligned with maxCkptLine
// (the payload is what gets checkpointed).
const maxResultBody = maxCkptLine

// ServeHTTP serves the campaign protocol.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

func (c *Coordinator) handleSpec(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.info)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad lease request: %v", err))
		return
	}
	resp, err := c.Lease(req)
	if err != nil {
		writeJSONError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	// Results are the one message that mutates the census, so the wire
	// boundary is paranoid: the body must parse AND match its own FNV-64a
	// self-checksum. A truncated or corrupted payload gets HTTP 400 and a
	// failed-attempt mark, and the shard is re-dispatched — never
	// mis-credited. (Workers retry 400s with a fresh POST; a fresh body
	// passes unless the corruption is at the sender.)
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxResultBody))
	if err != nil {
		c.RejectResult(-1, "", "truncated result body")
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("truncated result body: %v", err))
		return
	}
	var p ShardPayload
	if err := json.Unmarshal(data, &p); err != nil {
		c.RejectResult(-1, "", "corrupt result body")
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad result payload: %v", err))
		return
	}
	if want := PayloadSum(&p); p.Sum == "" || p.Sum != want {
		cause := fmt.Sprintf("payload checksum mismatch: body carries %q, content hashes to %s", p.Sum, want)
		c.RejectResult(p.Shard, p.Worker, cause)
		writeJSONError(w, http.StatusBadRequest, cause)
		return
	}
	resp, err := c.Credit(&p)
	if err != nil {
		writeJSONError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad heartbeat request: %v", err))
		return
	}
	resp, err := c.Heartbeat(req)
	if err != nil {
		writeJSONError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

type wireError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone = client's problem
}

func writeJSONError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, wireError{Error: msg})
}

// WriteJSON and WriteJSONError expose the coordinator's response helpers to
// the fleet-fuzzing coordinator (internal/fleet), which serves the same wire
// conventions (JSON bodies, {"error": ...} rejections) on its own handlers.
func WriteJSON(w http.ResponseWriter, status int, v any) { writeJSON(w, status, v) }

// WriteJSONError renders a wire rejection; see WriteJSON.
func WriteJSONError(w http.ResponseWriter, status int, msg string) { writeJSONError(w, status, msg) }

// Server binds a Coordinator to a TCP listener (-serve ADDR).
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// ListenAndServe starts serving the campaign protocol on addr (host:port;
// port 0 picks a free one, see Addr). h is usually the Coordinator itself;
// the chaos harness wraps it with WrapWireFaults.
func ListenAndServe(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("campaign: listen: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener.
func (s *Server) Close() error { return s.srv.Close() }

// String formats the control-plane summary the -serve frontend prints:
// shard accounting first, then per-worker credit counts sorted by worker
// name (deterministic output for logs and tests).
func (st Stats) String() string {
	lines := []string{fmt.Sprintf(
		"campaign: %d/%d shards done (%d resumed from checkpoint, %d re-dispatched, %d duplicates discarded, %d rejected, %d bad payloads, %d heartbeats)",
		st.Done, st.Shards, st.Resumed, st.Redispatched, st.Duplicates, st.Rejected, st.BadPayloads, st.Heartbeats)}
	if st.ShardsQuarantined > 0 {
		lines = append(lines, fmt.Sprintf(
			"  DEGRADED: %d shards quarantined after exhausting their dispatch attempts — census excludes their workloads (re-run with -retry-quarantined)",
			st.ShardsQuarantined))
	}
	workers := make([]string, 0, len(st.PerWorker))
	for wkr := range st.PerWorker {
		workers = append(workers, wkr)
	}
	sort.Strings(workers)
	for _, wkr := range workers {
		lines = append(lines, fmt.Sprintf("  %s: %d shards", wkr, st.PerWorker[wkr]))
	}
	return strings.Join(lines, "\n")
}
