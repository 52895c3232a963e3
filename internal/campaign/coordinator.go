package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"time"

	"chipmunk/internal/core"
	"chipmunk/internal/harness"
	"chipmunk/internal/lease"
	"chipmunk/internal/obs"
	"chipmunk/internal/workload"
)

// CoordinatorConfig configures NewCoordinator.
type CoordinatorConfig struct {
	Spec Spec
	// ShardSize is ignored: the suite's cut sizes its units (suiteCut).
	//
	// Deprecated: ignored; kept because the bench module sets it.
	ShardSize int
	LeaseTTL  time.Duration // 0 = lease.DefaultTTL
	// ShardRetries bounds failed dispatch attempts per shard before it is
	// quarantined (0 = lease.DefaultRetries). A shard that crash-loops its
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
	// quarantined shard.
	Journal *obs.Journal
	// Logf, when set, receives one line per lease/credit/expiry event.
	Logf func(format string, args ...any)
}

// Stats summarizes the campaign's control-plane history: the lease counters
// and the shard accounting. ShardsQuarantined counts the ledger, carried-over
// entries included; nonzero means the campaign completed degraded.
type Stats struct {
	lease.Counters
	Shards, Done, Resumed, ShardsQuarantined int
}

// Coordinator owns a campaign: the cut suite, its lease table (shard i is
// unit i of the cut; a spent shard is a quarantined one), and the credited
// payloads, on the lease shell. It is an http.Handler serving the campaign
// wire protocol.
type Coordinator struct {
	lease.Shell
	info     SpecInfo
	cut      harness.Cut
	index    map[string]int // suite index by workload name, for the fold
	last     map[string]int // each worker's latest unit (nextLocked)
	progress func(done, total int, c harness.Census)
	journal  *obs.Journal
	// tracer emits "shard-lease" spans (one per credited shard, spanning
	// lease grant to credit) under the campaign's coordinates: seed = suite
	// hash, shard index -1. Nil when no journal is attached.
	tracer   *obs.Tracer
	shards   *lease.Table
	payloads []*ShardPayload // by shard; set exactly when the shard is Done
}

// NewCoordinator builds the campaign: generates the suite, fingerprints
// it, cuts it, and — when CheckpointPath names a file recording this
// same campaign — folds the already-completed units back in so only the
// rest are leased out.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	suite, err := cfg.Spec.BuildSuite()
	if err != nil {
		return nil, err
	}
	if len(suite) == 0 {
		return nil, fmt.Errorf("campaign: empty suite %q", cfg.Spec.Suite)
	}
	index, err := suiteIndex(suite)
	if err != nil {
		return nil, err
	}
	cut, cutHash := suiteCut(suite)
	hash := workload.FormatSuiteHash(workload.SuiteHash(suite))
	n := cut.Size()
	info := SpecInfo{
		CampaignID: RunID("c", cfg.Spec, hash),
		Spec:       cfg.Spec,
		SuiteHash:  hash,
		Shards:     n,
		ShardSize:  unitSize(len(suite)),
		Cut:        cutHash,
		Workloads:  len(suite),
	}
	c := &Coordinator{
		info:     info,
		cut:      cut,
		index:    index,
		last:     make(map[string]int),
		progress: cfg.Progress,
		journal:  cfg.Journal,
		shards:   lease.NewTable(n, cfg.LeaseTTL, cfg.ShardRetries, lease.NewCounters()),
		payloads: make([]*ShardPayload, n),
	}
	if cfg.Journal != nil {
		// The campaign traces under (suite hash, shard -1): deterministic for
		// a given campaign, distinct from every worker's per-shard traces.
		seed, _ := strconv.ParseUint(hash, 16, 64)
		c.tracer = obs.NewTracer(cfg.Journal, seed, -1)
	}
	mux := c.Init(cfg.Logf, []lease.Kind{{Name: "shard", SpentAs: "quarantined", Table: c.shards}},
		func() any { return c.Status() },
		func() *obs.Snapshot { cen, _ := c.Merged(); return cen.Obs })
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

	if cfg.CheckpointPath != "" {
		if err := c.attachCheckpoint(cfg.CheckpointPath, cfg.RetryQuarantined); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// RunID names a run on the wire and in its checkpoint: prefix ("c" for a
// campaign, "f" for a fuzz soak) and FNV-64a over the spec's JSON and the
// run's fingerprint.
func RunID(prefix string, spec Spec, fingerprint string) string {
	h := fnv.New64a()
	b, _ := json.Marshal(spec)
	h.Write(b)
	h.Write([]byte(fingerprint))
	return fmt.Sprintf("%s%016x", prefix, h.Sum64())
}

func (c *Coordinator) attachCheckpoint(path string, retryQuarantined bool) error {
	st, err := LoadCheckpoint(path)
	if err != nil {
		return err
	}
	// A mismatched suite fingerprint or cut means the file belongs to a
	// different campaign: refusing is the only safe answer.
	if h, info := st.Header, c.info; h != nil && h.SuiteHash != info.SuiteHash {
		return fmt.Errorf("campaign: checkpoint suite fingerprint mismatch: file has %s (fs=%s suite=%s), campaign is %s (fs=%s suite=%s) — wrong checkpoint or diverged generator",
			h.SuiteHash, h.FS, h.Suite, info.SuiteHash, info.Spec.FS, info.Spec.Suite)
	} else if h != nil && h.ShardSize != 0 {
		return fmt.Errorf("%w: %s", ErrIndexCheckpoint, path)
	} else if h != nil && (h.Shards != info.Shards || h.Cut != info.Cut) {
		return fmt.Errorf("campaign: checkpoint cut mismatch: file has %d units (cut %s), campaign has %d (cut %s) — written by a build that cuts the suite differently",
			h.Shards, h.Cut, info.Shards, info.Cut)
	}
	slots := c.shards.Slots
	for _, p := range st.Payloads {
		if p.SuiteHash != c.info.SuiteHash || p.Shard < 0 || p.Shard >= len(slots) {
			c.Log("checkpoint: ignoring foreign shard record (shard %d, hash %s)", p.Shard, p.SuiteHash)
			continue
		}
		if slots[p.Shard].State != lease.Done {
			c.shards.Resume(p.Shard, p.Worker)
			c.payloads[p.Shard] = p
		}
	}
	// Quarantine records: a credit anywhere in the file wins (the shard was
	// eventually checked, e.g. by a prior -retry-quarantined run); otherwise
	// the shard carries its quarantine forward — never re-credited, never
	// silently re-run — unless this run asks to retry it.
	requeued := 0
	for _, q := range st.Quarantined {
		if q.SuiteHash != "" && q.SuiteHash != c.info.SuiteHash {
			c.Log("checkpoint: ignoring foreign quarantine record (shard %d, hash %s)", q.Shard, q.SuiteHash)
			continue
		}
		if q.Shard < 0 || q.Shard >= len(slots) {
			c.Log("checkpoint: ignoring out-of-range quarantine record (shard %d)", q.Shard)
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
			Cut:        c.info.Cut,
		}
	}
	if err := c.Attach("campaign", path, st.Skipped, header); err != nil {
		return err
	}
	if n := c.shards.Count(lease.Spent); n > 0 {
		c.Log("checkpoint: carrying %d quarantined shards forward (re-run them with -retry-quarantined)", n)
	}
	if requeued > 0 {
		c.Log("checkpoint: re-queued %d quarantined shards for retry", requeued)
	}
	if c.shards.Open() == 0 {
		c.Complete()
	}
	return nil
}

// Info returns the campaign identity served on handshake.
func (c *Coordinator) Info() SpecInfo { return c.info }

// reclaimLocked expires overdue leases so the next lease request
// re-dispatches them. Caller holds c.Mu.
func (c *Coordinator) reclaimLocked(now time.Time) {
	for _, i := range c.shards.Expire(now) {
		c.attemptFailedLocked(i, c.shards.Slots[i].Worker, lease.CauseExpired)
	}
}

// attemptFailedLocked is the campaign's policy for a failed dispatch attempt
// the table just booked against shard i: log the re-dispatch, or, once the
// budget is spent, move the shard to the quarantine ledger — never
// re-credited, checkpointed, journaled and reported. Caller holds c.Mu.
func (c *Coordinator) attemptFailedLocked(i int, worker, cause string) {
	s := &c.shards.Slots[i]
	if s.State != lease.Spent {
		c.Log("shard %d attempt %d/%d failed (worker %s): %s — re-dispatching",
			i, s.Attempts, c.shards.Retries, worker, cause)
		return
	}
	q := c.quarantineEntryLocked(i)
	c.Log("shard QUARANTINED: %s", q)
	c.journal.Emit(obs.Event{
		Type: "shard-quarantine", FS: c.info.Spec.FS, Workload: c.info.Spec.Suite,
		Sys: -1, Rank: i, States: q.End - q.Start, Detail: q.String(),
	})
	c.AppendLocked(ckptLine{Type: "quarantine", Quarantine: &q})
	if c.shards.Open() == 0 {
		c.Complete()
	}
}

// quarantineEntryLocked renders shard i's ledger entry. Caller holds c.Mu.
func (c *Coordinator) quarantineEntryLocked(i int) ShardQuarantine {
	s := &c.shards.Slots[i]
	return ShardQuarantine{
		Shard: i, Start: c.cut.Units[i], End: c.cut.Units[i+1], SuiteHash: c.info.SuiteHash,
		Worker: s.ErrWorker, Err: s.LastErr, Attempts: s.Attempts,
	}
}

// Quarantined returns the shard-quarantine ledger in shard order.
func (c *Coordinator) Quarantined() []ShardQuarantine {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	var out []ShardQuarantine
	for i := range c.shards.Slots {
		if c.shards.Slots[i].State == lease.Spent {
			out = append(out, c.quarantineEntryLocked(i))
		}
	}
	return out
}

// Lease hands a worker the shard it still holds (its last lease response was
// lost or discarded; see lease.Table.HeldBy), else the pending unit that
// nextLocked picks, or tells it to wait (everything in flight) or exit
// (done, draining, or failed).
func (c *Coordinator) Lease(req LeaseRequest) (LeaseResponse, error) {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if req.SuiteHash != c.info.SuiteHash {
		return LeaseResponse{}, c.shards.Foreign("suite", c.info.SuiteHash, req.Worker, req.SuiteHash,
			"generators differ, refusing to merge incomparable results")
	}
	if req.Cut != c.info.Cut {
		// An older build sends no cut and would run suite-index shards.
		return LeaseResponse{}, fmt.Errorf("%w: %w", lease.ErrOlderBuild, c.shards.Foreign("cut", c.info.Cut, req.Worker, req.Cut,
			"it would read a lease as suite indices, refusing it"))
	}
	if c.StoppedLocked() || c.shards.Open() == 0 {
		return LeaseResponse{Status: LeaseDone}, nil
	}
	now := time.Now()
	c.reclaimLocked(now)
	c.shards.Workers[req.Worker] = now
	i := c.shards.HeldBy(req.Worker)
	if i < 0 {
		i = c.nextLocked(req.Worker)
	}
	if i < 0 {
		return LeaseResponse{Status: LeaseWait}, nil
	}
	c.shards.Grant(i, req.Worker, now)
	c.last[req.Worker] = i
	start, end := c.cut.Units[i], c.cut.Units[i+1]
	c.Log("lease: shard %d [%d,%d) -> %s (ttl %v)", i, start, end, req.Worker, c.shards.TTL)
	return LeaseResponse{
		Status: LeaseGranted, Shard: i, Start: start, End: end,
		TTLNanos: int64(c.shards.TTL),
	}, nil
}

// nextLocked picks the pending unit to grant worker, keeping each worker's
// prefix memo on one stretch of the trie: the unit after its last one,
// unless its latest failed attempt was this worker's (a slow host or a bad
// disk fails every unit it runs; a healthy worker should get the retry).
// Failing that it opens a new stretch in the longest pending run: at the
// run's start, or at its middle when a leased unit precedes it — that unit's
// worker walks on into the first half. -1 when nothing is pending. Caller
// holds c.Mu.
func (c *Coordinator) nextLocked(worker string) int {
	slots := c.shards.Slots
	pending := func(i int) bool { return i < len(slots) && slots[i].State == lease.Pending }
	if k, ok := c.last[worker]; ok && pending(k+1) && slots[k+1].ErrWorker != worker {
		return k + 1
	}
	best, n := -1, 0
	for lo, hi := 0, 0; lo < len(slots); lo = hi + 1 {
		for hi = lo; pending(hi); hi++ {
		}
		if hi-lo > n {
			best, n = lo, hi-lo
		}
	}
	if best > 0 && slots[best-1].State == lease.Leased {
		return best + n/2
	}
	return best
}

// Credit records one shard result, at most once (lease.Shell.SettleLocked).
// An error payload is a failed dispatch attempt, and a shard that spends its
// attempts is quarantined: the campaign never fails or loops on one bad
// shard (re-run it with -retry-quarantined).
func (c *Coordinator) Credit(p *ShardPayload) (CreditResponse, error) {
	resp, credited, err := c.creditLocked(p)
	if credited && c.progress != nil {
		cen, _ := c.Merged()
		c.progress(cen.Workloads, c.info.Workloads, *cen)
	}
	if credited && resp.Done {
		c.Complete()
	}
	return resp, err
}

func (c *Coordinator) creditLocked(p *ShardPayload) (resp CreditResponse, credited bool, err error) {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if p.SuiteHash != c.info.SuiteHash {
		return resp, false, c.shards.Foreign("suite", c.info.SuiteHash, p.Worker, p.SuiteHash, "discarding result")
	}
	switch o, resp, err := c.SettleLocked("shard", p.Shard, p.Worker, p.Err); {
	case err != nil || resp.Duplicate:
		return resp, false, err
	case o == lease.Failed:
		c.attemptFailedLocked(p.Shard, p.Worker, p.Err)
		return CreditResponse{Quarantined: c.shards.Slots[p.Shard].State == lease.Spent, Done: c.shards.Open() == 0}, false, nil
	}
	c.payloads[p.Shard] = p
	// One measurement span per credited shard, spanning lease grant to
	// credit: the campaign-side view of shard latency (includes wire and
	// queueing time the worker's own "shard" span cannot see).
	c.tracer.Span("shard-lease", c.shards.Slots[p.Shard].LeasedAt, "", obs.Event{
		FS: c.info.Spec.FS, Workload: c.info.Spec.Suite, Worker: p.Worker,
		Sys: -1, Rank: p.Shard, States: p.StatesChecked,
	})
	if !c.AppendLocked(ckptLine{Type: "shard", Payload: p}) {
		return CreditResponse{Done: true}, false, nil
	}
	open := c.shards.Open()
	c.Log("credit: shard %d from %s (%d/%d done)", p.Shard, p.Worker, len(c.shards.Slots)-open, len(c.shards.Slots))
	return CreditResponse{Accepted: true, Done: open == 0}, true, nil
}

// Merged folds the credited shards into the campaign census so far.
// Quarantined shards contribute nothing (their workloads went unchecked);
// their count lands in the census obs snapshot under the measurement-class
// "shards-quarantined" counter, which Fingerprint excludes — the census over
// the healthy shards stays byte-identical to a serial run over their
// workloads.
func (c *Coordinator) Merged() (*harness.Census, []core.Violation) {
	c.Mu.Lock()
	payloads := make([]*ShardPayload, 0, len(c.payloads))
	for _, p := range c.payloads {
		if p != nil {
			payloads = append(payloads, p)
		}
	}
	quarantined := c.shards.Count(lease.Spent)
	c.Mu.Unlock()
	cen, viol := Fold(payloads, c.index)
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
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if req.SuiteHash != c.info.SuiteHash {
		return HeartbeatResponse{}, c.shards.Foreign("suite", c.info.SuiteHash, req.Worker, req.SuiteHash, "refusing heartbeat")
	}
	return c.BeatLocked("shard", req.Shard, req.Worker, req.StatesChecked)
}

// RejectResult records a result payload rejected at the wire (truncated
// body, corrupt JSON, checksum mismatch); see lease.Table.Reject.
func (c *Coordinator) RejectResult(shard int, worker, cause string) {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if c.shards.Reject(shard, worker, cause) == lease.Failed {
		c.attemptFailedLocked(shard, worker, cause)
	}
}

// Stats snapshots the control-plane counters.
func (c *Coordinator) Stats() Stats {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	return Stats{Counters: c.shards.Snapshot(), Shards: len(c.shards.Slots), Done: c.shards.Count(lease.Done),
		Resumed: c.shards.Resumed, ShardsQuarantined: c.shards.Count(lease.Spent)}
}

// Wait blocks until the campaign completes, fails, or ctx is cancelled
// (lease.Shell.Await: drain, then the partial census with ctx's error).
func (c *Coordinator) Wait(ctx context.Context) (*harness.Census, []core.Violation, error) {
	failed, err := c.Await(ctx, func() {
		c.Mu.Lock()
		defer c.Mu.Unlock()
		c.reclaimLocked(time.Now())
	})
	if failed != nil {
		return nil, nil, failed
	}
	cen, viol := c.Merged()
	return cen, viol, err
}

// --- HTTP surface -------------------------------------------------------

// Wire paths. Workers GET the spec once (handshake), then loop
// POST lease -> run shard (heartbeating) -> POST result.
const (
	PathSpec      = "/campaign/spec"
	PathLease     = "/campaign/lease"
	PathResult    = "/campaign/result"
	PathHeartbeat = "/campaign/heartbeat"
)

// Server binds a Coordinator to a TCP listener (-serve ADDR).
type Server = lease.Server

// ListenAndServe starts serving the campaign protocol on addr; see
// lease.ListenAndServe.
func ListenAndServe(addr string, h http.Handler) (*Server, error) {
	return lease.ListenAndServe(addr, h)
}

// String formats the control-plane summary the -serve frontend prints.
func (st Stats) String() string {
	degraded := ""
	if st.ShardsQuarantined > 0 {
		degraded = fmt.Sprintf("DEGRADED: %d shards quarantined after exhausting their dispatch attempts — census excludes their workloads (re-run with -retry-quarantined)",
			st.ShardsQuarantined)
	}
	return st.Report(fmt.Sprintf("campaign: %d/%d shards done", st.Done, st.Shards), st.Resumed, "shards", degraded)
}

// CampaignStatus is one point-in-time view of a campaign, served at
// lease.PathStatus and rendered at lease.PathDash: the shared lease.Status plus the
// suite's identity and its shards in campaign terms.
type CampaignStatus struct {
	lease.Status
	Suite     string `json:"suite"`
	SuiteHash string `json:"suite_hash"`
	Workloads int    `json:"workloads"`
	ShardSize int    `json:"shard_size"`

	// Shards = Pending+Leased+Done+Quarantined; ShardMap is the shard
	// table's map (lease.Tally).
	Shards      int    `json:"shards"`
	Quarantined int    `json:"quarantined"`
	ShardMap    string `json:"shard_map"`
	Violations  int    `json:"violations"`
}

// Status snapshots the campaign (lease.Shell.StatusLocked).
func (c *Coordinator) Status() CampaignStatus {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	var sum core.Census
	for _, p := range c.payloads {
		if p != nil {
			sum.Merge(p.Census)
		}
	}
	st := c.StatusLocked(time.Now(), int64(sum.StatesChecked))
	info := c.info
	st.CampaignID, st.FS = info.CampaignID, info.Spec.FS
	st.Dash.Title = "campaign " + info.CampaignID
	st.Dash.About = fmt.Sprintf("%s / %s (%d workloads, hash %s)", info.Spec.FS, info.Spec.Suite, info.Workloads, info.SuiteHash)
	st.Dash.Facts = []string{fmt.Sprintf("%d violations", sum.Violations)}
	return CampaignStatus{
		Status: st, Suite: info.Spec.Suite, SuiteHash: info.SuiteHash,
		Workloads: info.Workloads, ShardSize: info.ShardSize,
		Shards: st.Dash.Units, Quarantined: st.Dash.Spent, ShardMap: st.Dash.Map, Violations: sum.Violations,
	}
}
