package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"chipmunk/internal/core"
	"chipmunk/internal/harness"
	"chipmunk/internal/lease"
	"chipmunk/internal/obs"
	"chipmunk/internal/workload"
)

// DefaultShardSize is how many workloads one lease covers. Coarse enough
// that per-shard HTTP and checkpoint overhead is noise, fine enough that a
// lost worker forfeits little work and stragglers rebalance.
const DefaultShardSize = 32

// DefaultLeaseTTL (-lease) and DefaultShardRetries (-shard-retries) are the
// lease engine's defaults under the names the campaign flags document.
const (
	DefaultLeaseTTL     = lease.DefaultTTL
	DefaultShardRetries = lease.DefaultRetries
)

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

// Coordinator owns a campaign: the sharded suite, its lease table (shard i is
// unit i; a spent shard is a quarantined one), the credited payloads, and
// the checkpoint. It is an http.Handler serving the campaign wire protocol.
type Coordinator struct {
	info     SpecInfo
	progress func(done, total int, c harness.Census)
	journal  *obs.Journal
	// tracer emits "shard-lease" spans (one per credited shard, spanning
	// lease grant to credit) under the campaign's coordinates: seed = suite
	// hash, shard index -1. Nil when no journal is attached.
	tracer  *obs.Tracer
	started time.Time
	logf    func(format string, args ...any)
	mux     *http.ServeMux

	mu       sync.Mutex
	shards   *lease.Table
	payloads []*ShardPayload // by shard; set exactly when the shard is Done
	draining bool
	failed   error
	ckpt     *lease.Log
	resumed  int

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
		info:     info,
		progress: cfg.Progress,
		journal:  cfg.Journal,
		started:  time.Now(),
		logf:     cfg.Logf,
		shards:   lease.NewTable(n, cfg.LeaseTTL, cfg.ShardRetries, lease.NewCounters()),
		payloads: make([]*ShardPayload, n),
		doneCh:   make(chan struct{}),
	}
	if cfg.Journal != nil {
		// The campaign traces under (suite hash, shard -1): deterministic for
		// a given campaign, distinct from every worker's per-shard traces.
		seed, _ := strconv.ParseUint(hash, 16, 64)
		c.tracer = obs.NewTracer(cfg.Journal, seed, -1)
	}
	mux := http.NewServeMux()
	mux.HandleFunc(PathSpec, func(w http.ResponseWriter, r *http.Request) { lease.WriteJSON(w, http.StatusOK, c.info) })
	mux.HandleFunc(PathLease, lease.Handle("lease", c.Lease))
	mux.HandleFunc(PathResult, lease.HandleResult(
		func(p *ShardPayload) (string, string) { return p.Sum, PayloadSum(p) },
		func(p *ShardPayload, cause string) {
			if p == nil {
				p = &ShardPayload{Shard: -1}
			}
			c.RejectResult(p.Shard, p.Worker, cause)
		}, c.Credit))
	mux.HandleFunc(PathHeartbeat, lease.Handle("heartbeat", c.Heartbeat))
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
	slots := c.shards.Slots
	for _, p := range st.Payloads {
		if p.SuiteHash != c.info.SuiteHash || p.Shard < 0 || p.Shard >= len(slots) {
			c.log("checkpoint: ignoring foreign shard record (shard %d, hash %s)", p.Shard, p.SuiteHash)
			continue
		}
		if slots[p.Shard].State == lease.Done {
			continue
		}
		slots[p.Shard].State = lease.Done
		c.payloads[p.Shard] = p
		c.resumed++
		c.shards.PerWorker["checkpoint"]++
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
		if q.Shard < 0 || q.Shard >= len(slots) {
			c.log("checkpoint: ignoring out-of-range quarantine record (shard %d)", q.Shard)
			continue
		}
		slot := &slots[q.Shard]
		if slot.State == lease.Done {
			continue // later credited: done wins
		}
		if retryQuarantined {
			*slot = lease.Slot{} // pending, attempt budget reset
			requeued++
			continue
		}
		*slot = lease.Slot{State: lease.Spent, ErrWorker: q.Worker, Attempts: q.Attempts, LastErr: q.Err}
	}
	var header any
	if st.Header == nil {
		header = ckptLine{
			Type:       "campaign",
			CampaignID: c.info.CampaignID,
			SuiteHash:  c.info.SuiteHash,
			FS:         c.info.Spec.FS,
			Suite:      c.info.Spec.Suite,
			Workloads:  c.info.Workloads,
			Shards:     c.info.Shards,
			ShardSize:  c.info.ShardSize,
		}
	}
	if c.ckpt, err = lease.OpenLog("campaign", path, header); err != nil {
		return err
	}
	if c.resumed > 0 {
		c.log("checkpoint: resumed %d/%d shards from %s", c.resumed, len(slots), path)
	}
	if n := c.shards.Count(lease.Spent); n > 0 {
		c.log("checkpoint: carrying %d quarantined shards forward (re-run them with -retry-quarantined)", n)
	}
	if requeued > 0 {
		c.log("checkpoint: re-queued %d quarantined shards for retry", requeued)
	}
	if c.shards.Open() == 0 {
		c.complete()
	}
	return nil
}

// Info returns the campaign identity served on handshake.
func (c *Coordinator) Info() SpecInfo { return c.info }

func (c *Coordinator) log(format string, args ...any) {
	if c.logf != nil {
		c.logf(format, args...)
	}
}

// complete only closes a channel (sync.Once); safe under c.mu.
func (c *Coordinator) complete() {
	c.doneOnce.Do(func() { close(c.doneCh) })
}

// reclaimLocked expires overdue leases so the next lease request
// re-dispatches them. Caller holds c.mu.
func (c *Coordinator) reclaimLocked(now time.Time) {
	for _, i := range c.shards.Expire(now) {
		c.attemptFailedLocked(i, c.shards.Slots[i].Worker, lease.CauseExpired)
	}
}

// attemptFailedLocked is the campaign's policy for a failed dispatch attempt
// the table just booked against shard i — lease expiry, structured error
// payload, or rejected result: log the re-dispatch, or, once the attempt
// budget is spent, move the shard to the quarantine ledger — removed from the
// campaign (never re-credited), persisted in the checkpoint, journaled, and
// reported; never silent, never fatal. Caller holds c.mu.
func (c *Coordinator) attemptFailedLocked(i int, worker, cause string) {
	s := &c.shards.Slots[i]
	if s.State != lease.Spent {
		c.log("shard %d attempt %d/%d failed (worker %s): %s — re-dispatching",
			i, s.Attempts, c.shards.Retries, worker, cause)
		return
	}
	q := c.quarantineEntryLocked(i)
	c.log("shard QUARANTINED: %s", q)
	c.journal.Emit(obs.Event{
		Type: "shard-quarantine", FS: c.info.Spec.FS, Workload: c.info.Spec.Suite,
		Sys: -1, Rank: i, States: q.End - q.Start, Detail: q.String(),
	})
	if err := c.ckpt.Append(ckptLine{Type: "quarantine", Quarantine: &q}); err != nil && c.failed == nil {
		c.failed = err
	}
	if c.shards.Open() == 0 || c.failed != nil {
		c.complete()
	}
}

// quarantineEntryLocked renders shard i's ledger entry. Caller holds c.mu.
func (c *Coordinator) quarantineEntryLocked(i int) ShardQuarantine {
	s := &c.shards.Slots[i]
	start, end := shardRange(i, c.info.ShardSize, c.info.Workloads)
	return ShardQuarantine{
		Shard: i, Start: start, End: end, SuiteHash: c.info.SuiteHash,
		Worker: s.ErrWorker, Err: s.LastErr, Attempts: s.Attempts,
	}
}

// Quarantined returns the shard-quarantine ledger in shard order.
func (c *Coordinator) Quarantined() []ShardQuarantine {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []ShardQuarantine
	for i := range c.shards.Slots {
		if c.shards.Slots[i].State == lease.Spent {
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
	return c.shards.Count(lease.Spent) > 0
}

// Lease hands a worker the shard it still holds (its last lease response was
// lost or discarded; see lease.Table.HeldBy), else the lowest-numbered
// pending shard, or tells it to wait (everything in flight) or exit (done,
// draining, or failed).
func (c *Coordinator) Lease(req LeaseRequest) (LeaseResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.SuiteHash != c.info.SuiteHash {
		return LeaseResponse{}, c.shards.Foreign("suite", c.info.SuiteHash, req.Worker, req.SuiteHash,
			"generators differ, refusing to merge incomparable results")
	}
	if c.draining || c.failed != nil || c.shards.Open() == 0 {
		return LeaseResponse{Status: LeaseDone}, nil
	}
	now := time.Now()
	c.reclaimLocked(now)
	c.shards.Workers[req.Worker] = now
	i := c.shards.HeldBy(req.Worker)
	if i < 0 {
		i = c.shards.First(lease.Pending)
	}
	if i < 0 {
		return LeaseResponse{Status: LeaseWait}, nil
	}
	c.shards.Grant(i, req.Worker, now)
	start, end := shardRange(i, c.info.ShardSize, c.info.Workloads)
	c.log("lease: shard %d [%d,%d) -> %s (ttl %v)", i, start, end, req.Worker, c.shards.TTL)
	return LeaseResponse{
		Status: LeaseGranted, Shard: i, Start: start, End: end,
		TTLNanos: int64(c.shards.TTL),
	}, nil
}

// Credit records one shard result, at most once per (shard id, suite
// fingerprint): a resurrected slow worker whose lease expired and whose
// shard was re-run elsewhere gets Duplicate, and its payload is discarded.
// A structured error payload is one failed dispatch attempt: the shard is
// re-dispatched until its budget is spent, then quarantined — the campaign
// never fails or loops on one bad shard — and a healthy late result for a
// quarantined shard is discarded too (re-run it with -retry-quarantined).
func (c *Coordinator) Credit(p *ShardPayload) (CreditResponse, error) {
	resp, credited, err := c.creditLocked(p)
	if credited && c.progress != nil {
		cen, _ := c.Merged()
		c.progress(cen.Workloads, c.info.Workloads, *cen)
	}
	if credited && resp.Done {
		c.complete()
	}
	return resp, err
}

func (c *Coordinator) creditLocked(p *ShardPayload) (resp CreditResponse, credited bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p.SuiteHash != c.info.SuiteHash {
		return resp, false, c.shards.Foreign("suite", c.info.SuiteHash, p.Worker, p.SuiteHash, "discarding result")
	}
	if p.Shard < 0 || p.Shard >= len(c.shards.Slots) {
		c.shards.Rejected++
		return resp, false, fmt.Errorf("shard %d out of range [0,%d)", p.Shard, len(c.shards.Slots))
	}
	switch c.shards.Settle(p.Shard, p.Worker, p.Err, time.Now()) {
	case lease.Stale:
		c.log("stale error payload for shard %d from %s: discarded", p.Shard, p.Worker)
		return CreditResponse{Duplicate: true}, false, nil
	case lease.Failed:
		c.attemptFailedLocked(p.Shard, p.Worker, p.Err)
		return CreditResponse{
			Quarantined: c.shards.Slots[p.Shard].State == lease.Spent,
			Done:        c.shards.Open() == 0,
		}, false, nil
	case lease.Discarded:
		c.log("result for quarantined shard %d from %s: discarded", p.Shard, p.Worker)
		return CreditResponse{Duplicate: true, Quarantined: true}, false, nil
	case lease.Duplicate:
		c.log("duplicate result for shard %d from %s: discarded", p.Shard, p.Worker)
		return CreditResponse{Duplicate: true}, false, nil
	}
	c.payloads[p.Shard] = p
	// One measurement span per credited shard, spanning lease grant to
	// credit: the campaign-side view of shard latency (includes wire and
	// queueing time the worker's own "shard" span cannot see).
	c.tracer.Span("shard-lease", c.shards.Slots[p.Shard].LeasedAt, "", obs.Event{
		FS: c.info.Spec.FS, Workload: c.info.Spec.Suite, Worker: p.Worker,
		Sys: -1, Rank: p.Shard, States: p.StatesChecked,
	})
	if err := c.ckpt.Append(ckptLine{Type: "shard", Payload: p}); err != nil {
		if c.failed == nil {
			c.failed = err
		}
		c.complete()
		return CreditResponse{Done: true}, false, nil
	}
	open := c.shards.Open()
	c.log("credit: shard %d from %s (%d/%d done)", p.Shard, p.Worker, len(c.shards.Slots)-open, len(c.shards.Slots))
	return CreditResponse{Accepted: true, Done: open == 0}, true, nil
}

// Merged folds the credited shards, in shard order, into the campaign
// census so far. Quarantined shards contribute nothing (their slices went
// unchecked); their count lands in the census obs snapshot under the
// measurement-class "shards-quarantined" counter, which Fingerprint
// excludes — the census over the healthy shards stays byte-identical to a
// serial run over the same slices.
func (c *Coordinator) Merged() (*harness.Census, []core.Violation) {
	c.mu.Lock()
	payloads := make([]*ShardPayload, 0, len(c.payloads))
	for _, p := range c.payloads {
		if p != nil {
			payloads = append(payloads, p)
		}
	}
	quarantined := c.shards.Count(lease.Spent)
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

// Heartbeat extends a live lease (POST /campaign/heartbeat); a refusal tells
// the worker it lost the lease and should abandon the shard.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.SuiteHash != c.info.SuiteHash {
		return HeartbeatResponse{}, c.shards.Foreign("suite", c.info.SuiteHash, req.Worker, req.SuiteHash, "refusing heartbeat")
	}
	if req.Shard < 0 || req.Shard >= len(c.shards.Slots) {
		return HeartbeatResponse{}, fmt.Errorf("shard %d out of range [0,%d)", req.Shard, len(c.shards.Slots))
	}
	if !c.shards.Beat(req.Shard, req.Worker, req.StatesChecked, time.Now()) {
		return HeartbeatResponse{Extended: false}, nil
	}
	return HeartbeatResponse{Extended: true, TTLNanos: int64(c.shards.TTL)}, nil
}

// RejectResult records a result payload rejected at the wire (truncated
// body, corrupt JSON, checksum mismatch); see lease.Table.Reject.
func (c *Coordinator) RejectResult(shard int, worker, cause string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shards.Reject(shard, worker, cause) == lease.Failed {
		c.attemptFailedLocked(shard, worker, cause)
	}
}

// Stats snapshots the control-plane counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Shards:            len(c.shards.Slots),
		Done:              c.shards.Count(lease.Done),
		Resumed:           c.resumed,
		Redispatched:      c.shards.Redispatched,
		Duplicates:        c.shards.Duplicates,
		Rejected:          c.shards.Rejected,
		ShardsQuarantined: c.shards.Count(lease.Spent),
		BadPayloads:       c.shards.BadPayloads,
		Heartbeats:        c.shards.Heartbeats,
		PerWorker:         c.shards.PerWorkerCopy(),
	}
}

// Drain stops issuing new leases; in-flight shards may still report and
// be credited (and checkpointed) until their deadlines expire.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
}

// Wait blocks until the campaign completes, fails, or ctx is cancelled
// (lease.Await: drain, then the partial census with ctx's error).
func (c *Coordinator) Wait(ctx context.Context) (*harness.Census, []core.Violation, error) {
	err := lease.Await(ctx, c.doneCh, c.Drain, func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.reclaimLocked(time.Now())
		return c.shards.Count(lease.Leased)
	})
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

// ServeHTTP serves the campaign protocol.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// Server binds a Coordinator to a TCP listener (-serve ADDR).
type Server = lease.Server

// ListenAndServe starts serving the campaign protocol on addr; see
// lease.ListenAndServe.
func ListenAndServe(addr string, h http.Handler) (*Server, error) {
	return lease.ListenAndServe(addr, h)
}

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
	lines = append(lines, lease.PerWorkerLines(st.PerWorker, "  %s: %d shards")...)
	return strings.Join(lines, "\n")
}
