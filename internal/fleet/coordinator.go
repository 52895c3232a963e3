package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"chipmunk/internal/campaign"
	"chipmunk/internal/lease"
	"chipmunk/internal/obs"
	"chipmunk/internal/report"
)

// CoordinatorConfig configures NewCoordinator.
type CoordinatorConfig struct {
	// Spec must have Fuzz set and exactly one of BudgetExecs/BudgetNanos
	// nonzero. Defaulted knobs are normalized before hashing, so workers see
	// the resolved values.
	Spec     campaign.Spec
	LeaseTTL time.Duration // 0 = campaign.DefaultLeaseTTL
	// Retries bounds failed dispatch attempts per round or minimization task
	// before it is dropped (0 = campaign.DefaultShardRetries).
	Retries int
	// CheckpointPath, when set, appends credited results durably and — when
	// the file records this same soak — resumes by replaying them.
	CheckpointPath string
	// Journal, when non-nil, receives one event per dropped round/task.
	Journal *obs.Journal
	// Logf, when set, receives one line per lease/credit/fold event.
	Logf func(format string, args ...any)
}

// minTask is one reproducer-minimization unit (its lease lives in the
// coordinator's mins table, at its id). Tasks are created at generation
// folds — one per first-seen violation cluster, in sorted cluster-key order
// — so their ids are a pure function of the credited round set, like
// everything else in the fold. A task that spends its attempts resolves
// unverified: the census falls back to the unminimized representative
// rather than stalling the soak.
type minTask struct {
	cluster string
	text    string // representative reproducer (minimization input)
	// Outcome: verified means the minimized form re-tripped the cluster.
	verified bool
	minText  string
	minExecs int
}

// Stats summarizes the soak's control-plane history.
type Stats struct {
	Rounds         int
	RoundsCredited int
	RoundsDropped  int
	MinTasks       int
	MinDone        int
	MinDropped     int
	Resumed        int
	Redispatched   int
	Duplicates     int
	Rejected       int
	BadPayloads    int
	Heartbeats     int
	Generations    int
	PerWorker      map[string]int
}

// String renders the control-plane summary the -serve frontend prints.
func (st Stats) String() string {
	lines := []string{fmt.Sprintf(
		"fleet: %d/%d rounds credited in %d generations (%d resumed from checkpoint, %d re-dispatched, %d duplicates discarded, %d rejected, %d bad payloads, %d heartbeats)",
		st.RoundsCredited, st.Rounds, st.Generations, st.Resumed, st.Redispatched,
		st.Duplicates, st.Rejected, st.BadPayloads, st.Heartbeats)}
	if st.MinTasks > 0 {
		lines = append(lines, fmt.Sprintf("  minimization: %d/%d tasks done (%d dropped)",
			st.MinDone, st.MinTasks, st.MinDropped))
	}
	if st.RoundsDropped > 0 {
		lines = append(lines, fmt.Sprintf(
			"  DEGRADED: %d rounds dropped after exhausting their dispatch attempts — their fuzzing work is missing from the census",
			st.RoundsDropped))
	}
	lines = append(lines, lease.PerWorkerLines(st.PerWorker, "  %-20s %d units")...)
	return strings.Join(lines, "\n")
}

// Coordinator owns a fleet-fuzzing soak: the round/generation state
// machine, the canonical corpus log, the minimization queue, the bug
// census, and the checkpoint. It is an http.Handler serving the fuzzing
// wire protocol (plus the campaign handshake path).
//
// Rounds and minimization tasks are two lease tables over one set of
// counters, both under c.mu: the generation fold reads the rounds and grows
// the mins. A spent round is a dropped one — it resolves its generation, is
// persisted (the fold depends on it) and marks the soak degraded; a spent
// minimization task is done, unverified.
type Coordinator struct {
	info    campaign.SpecInfo
	spec    campaign.Spec
	journal *obs.Journal
	started time.Time
	logf    func(format string, args ...any)
	mux     *http.ServeMux

	// execMode: BudgetExecs bounds the soak (fully deterministic).
	// Otherwise BudgetNanos bounds wall-clock from soakStart (persisted in
	// the checkpoint header, so a resumed soak keeps its original deadline).
	execMode  bool
	soakStart time.Time

	mu sync.Mutex
	// rounds grows a generation at a time in duration mode; results[r] is
	// set exactly when round r is Done.
	rounds       *lease.Table
	results      []*FuzzResult
	budgetClosed bool

	corpus   []CorpusEntry
	coverage map[uint64]bool
	// genCut[g] is the corpus-log length generation-g rounds fuzz against;
	// foldedGens = len(genCut)-1 is the number of fully folded generations.
	genCut []int

	mins        *lease.Table
	minTasks    []minTask // by task id, parallel to mins.Slots
	clusterSeen map[string]bool

	execs             int
	statesChecked     int
	retriedChecks     int
	quarantinedChecks int
	obsMerged         *obs.Snapshot

	resumed  int
	draining bool
	failed   error
	ckpt     *lease.Log

	doneOnce sync.Once
	doneCh   chan struct{}
}

// NewCoordinator builds the soak: normalizes and fingerprints the spec,
// lays out the round schedule, and — when CheckpointPath names a file
// recording this same soak — replays it so only the missing work is leased
// out again.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	spec := Normalize(cfg.Spec)
	if !spec.Fuzz {
		return nil, fmt.Errorf("fleet: spec is not a fuzz spec (Fuzz unset)")
	}
	if (spec.BudgetExecs > 0) == (spec.BudgetNanos > 0) {
		return nil, fmt.Errorf("fleet: exactly one of BudgetExecs and BudgetNanos must be set")
	}
	if _, err := spec.Options(); err != nil {
		return nil, err
	}
	hash := SpecHash(spec)
	execMode := spec.BudgetExecs > 0
	total := 0
	if execMode {
		total = (spec.BudgetExecs + spec.RoundExecs - 1) / spec.RoundExecs
	}
	ctr := lease.NewCounters()
	c := &Coordinator{
		info: campaign.SpecInfo{
			CampaignID: soakID(spec, hash),
			Spec:       spec,
			SuiteHash:  hash,
			Shards:     total,
			ShardSize:  spec.RoundExecs,
			Workloads:  spec.BudgetExecs,
		},
		spec:        spec,
		journal:     cfg.Journal,
		started:     time.Now(),
		soakStart:   time.Now(),
		logf:        cfg.Logf,
		execMode:    execMode,
		rounds:      lease.NewTable(total, cfg.LeaseTTL, cfg.Retries, ctr),
		results:     make([]*FuzzResult, total),
		mins:        lease.NewTable(0, cfg.LeaseTTL, cfg.Retries, ctr),
		coverage:    map[uint64]bool{},
		genCut:      []int{0},
		clusterSeen: map[string]bool{},
		doneCh:      make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc(campaign.PathSpec, func(w http.ResponseWriter, r *http.Request) { lease.WriteJSON(w, http.StatusOK, c.info) })
	mux.HandleFunc(PathFuzzLease, lease.Handle("lease", c.Lease))
	mux.HandleFunc(PathFuzzResult, lease.HandleResult(
		func(p *FuzzResult) (string, string) { return p.Sum, ResultSum(p) },
		func(p *FuzzResult, cause string) {
			if p == nil {
				p = &FuzzResult{Round: -1}
			}
			c.RejectResult(p.Kind, unitID(p), p.Worker, cause)
		}, c.Credit))
	mux.HandleFunc(PathFuzzHeartbeat, lease.Handle("heartbeat", c.Heartbeat))
	mux.HandleFunc(campaign.PathStatus, c.handleStatus)
	mux.HandleFunc(campaign.PathDash, c.handleDash)
	mux.HandleFunc("/debug/metrics", c.handleMetrics)
	c.mux = mux

	if cfg.CheckpointPath != "" {
		if err := c.attachCheckpoint(cfg.CheckpointPath); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func soakID(spec campaign.Spec, hash string) string {
	h := fnv.New64a()
	b, _ := json.Marshal(spec)
	h.Write(b)
	h.Write([]byte(hash))
	return fmt.Sprintf("f%016x", h.Sum64())
}

// Info returns the soak identity served on handshake. The campaign.SpecInfo
// fields are reinterpreted for fuzz mode: SuiteHash is the spec fingerprint
// (SpecHash), Shards the round count (0 while a duration budget is open),
// ShardSize the round exec count, Workloads the exec budget.
func (c *Coordinator) Info() campaign.SpecInfo { return c.info }

func (c *Coordinator) log(format string, args ...any) {
	if c.logf != nil {
		c.logf(format, args...)
	}
}

// complete only closes a channel (sync.Once); safe under c.mu.
func (c *Coordinator) complete() {
	c.doneOnce.Do(func() { close(c.doneCh) })
}

func (c *Coordinator) genOf(r int) int { return r / c.spec.GenRounds }

// foldedGensLocked is the number of fully folded generations.
func (c *Coordinator) foldedGensLocked() int { return len(c.genCut) - 1 }

// roundExecsLocked is round r's iteration count: RoundExecs, except the
// last round of an exec budget takes the remainder.
func (c *Coordinator) roundExecsLocked(r int) int {
	if c.execMode && r == len(c.rounds.Slots)-1 {
		if rem := c.spec.BudgetExecs - r*c.spec.RoundExecs; rem > 0 {
			return rem
		}
	}
	return c.spec.RoundExecs
}

// growRoundsLocked schedules n more rounds (duration mode, whole
// generations at a time).
func (c *Coordinator) growRoundsLocked(n int) {
	c.rounds.Grow(n)
	c.results = append(c.results, make([]*FuzzResult, n)...)
}

// foldLocked advances the generation barrier as far as the resolved rounds
// allow. For each fully resolved generation it absorbs the credited rounds'
// corpus candidates in canonical order — sorted by (FNV-64a of text, text),
// admitted iff still carrying an unseen signature — and opens minimization
// tasks for first-seen violation clusters. Caller holds c.mu.
func (c *Coordinator) foldLocked() {
	for {
		g := c.foldedGensLocked()
		lo := g * c.spec.GenRounds
		hi := min(lo+c.spec.GenRounds, len(c.rounds.Slots))
		if lo >= hi {
			return // generation not scheduled (yet)
		}
		var cands []CorpusEntry
		var viols []FuzzViolation
		for r := lo; r < hi; r++ {
			switch c.rounds.Slots[r].State {
			case lease.Done:
				cands = append(cands, c.results[r].NewEntries...)
				viols = append(viols, c.results[r].Violations...)
			case lease.Spent:
			default:
				return // generation still has unresolved rounds
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			ki, kj := entryKey(cands[i]), entryKey(cands[j])
			if ki != kj {
				return ki < kj
			}
			return cands[i].Text < cands[j].Text
		})
		admitted := 0
		for _, e := range cands {
			novel := false
			for _, s := range e.Sigs {
				if !c.coverage[s] {
					novel = true
					break
				}
			}
			if !novel {
				continue
			}
			for _, s := range e.Sigs {
				c.coverage[s] = true
			}
			e.Sum = EntrySum(e)
			c.corpus = append(c.corpus, e)
			admitted++
		}
		c.genCut = append(c.genCut, len(c.corpus))
		c.log("fold: generation %d closed (rounds [%d,%d)): +%d corpus entries (%d total, %d edges)",
			g, lo, hi, admitted, len(c.corpus), len(c.coverage))

		// First-seen clusters open minimization tasks. The representative is
		// the lexicographically smallest reproducer text in this generation —
		// stable under any arrival order — and ids follow sorted cluster-key
		// order, so the whole queue is a pure function of the fold.
		rep := map[string]string{}
		for _, v := range viols {
			key := v.ClusterKey()
			if c.clusterSeen[key] {
				continue
			}
			if cur, ok := rep[key]; !ok || v.Text < cur {
				rep[key] = v.Text
			}
		}
		keys := make([]string, 0, len(rep))
		for k := range rep {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			c.clusterSeen[k] = true
			c.log("minimize: task %d opened for cluster %q", len(c.minTasks), k)
			c.mins.Grow(1)
			c.minTasks = append(c.minTasks, minTask{cluster: k, text: rep[k]})
		}
	}
}

// extendScheduleLocked appends one more generation of rounds in duration
// mode when the previous ones are fully folded and the wall-clock budget is
// still open. Caller holds c.mu.
func (c *Coordinator) extendScheduleLocked(now time.Time) {
	if c.execMode || c.budgetClosed {
		return
	}
	if now.Sub(c.soakStart) >= time.Duration(c.spec.BudgetNanos) {
		c.budgetClosed = true
		c.log("budget: wall-clock budget spent; no new generations")
		return
	}
	if len(c.rounds.Slots) != c.foldedGensLocked()*c.spec.GenRounds {
		return // the current generation block is still in flight
	}
	c.growRoundsLocked(c.spec.GenRounds)
}

// completedLocked reports whether the soak is finished: every scheduled
// round resolved and folded, the budget closed (duration mode), and every
// minimization task done. Caller holds c.mu.
func (c *Coordinator) completedLocked() bool {
	if !c.execMode && !c.budgetClosed {
		return false
	}
	return c.foldedGensLocked()*c.spec.GenRounds >= len(c.rounds.Slots) && c.mins.Open() == 0
}

func (c *Coordinator) maybeCompleteLocked() {
	if c.failed != nil || c.completedLocked() {
		c.complete()
	}
}

// unitLocked resolves a wire identity (kind, id) to the table it names and
// that table's noun in log lines. Caller holds c.mu.
func (c *Coordinator) unitLocked(kind string, id int) (*lease.Table, string, error) {
	tab, noun := c.rounds, "round"
	switch kind {
	case ResultRound:
	case ResultMinimize:
		tab, noun = c.mins, "minimize task"
	default:
		return nil, "", fmt.Errorf("unknown unit kind %q", kind)
	}
	if id < 0 || id >= len(tab.Slots) {
		return nil, "", fmt.Errorf("%s %d out of range [0,%d)", noun, id, len(tab.Slots))
	}
	return tab, noun, nil
}

// reclaimLocked expires overdue leases for re-dispatch. Caller holds c.mu.
func (c *Coordinator) reclaimLocked(now time.Time) {
	for _, tab := range []*lease.Table{c.rounds, c.mins} {
		for _, i := range tab.Expire(now) {
			c.attemptFailedLocked(tab, i, tab.Slots[i].Worker, lease.CauseExpired)
		}
	}
}

// attemptFailedLocked is the fleet's policy for a failed dispatch attempt the
// table just booked against unit i of tab: log the re-dispatch, or, once the
// attempt budget is spent, record the drop — persisted, journaled — and let
// whatever waited on the unit move on. Caller holds c.mu.
func (c *Coordinator) attemptFailedLocked(tab *lease.Table, i int, worker, cause string) {
	s := &tab.Slots[i]
	switch {
	case s.State != lease.Spent:
		noun := "round"
		if tab == c.mins {
			noun = "minimize task"
		}
		c.log("%s %d attempt %d/%d failed (worker %s): %s — re-dispatching",
			noun, i, s.Attempts, tab.Retries, worker, cause)
		return
	case tab == c.rounds:
		c.log("round DROPPED: round %d after %d failed attempts, worker %q: %s",
			i, s.Attempts, s.ErrWorker, s.LastErr)
		c.journal.Emit(obs.Event{
			Type: "fuzz-round-drop", FS: c.spec.FS, Workload: "fuzz",
			Worker: s.ErrWorker, Sys: -1, Rank: i, Detail: s.LastErr,
		})
		c.appendLocked(fleetCkptLine{Type: "drop", Round: i, Worker: s.ErrWorker, Err: s.LastErr, Attempts: s.Attempts})
		c.foldLocked()
	default:
		m := &c.minTasks[i]
		c.log("minimize task %d DROPPED after %d failed attempts: census keeps the unminimized reproducer", i, s.Attempts)
		c.journal.Emit(obs.Event{
			Type: "fuzz-min-drop", FS: c.spec.FS, Workload: "fuzz",
			Worker: s.ErrWorker, Sys: -1, Rank: i, Detail: m.cluster + ": " + s.LastErr,
		})
		c.appendLocked(fleetCkptLine{Type: "mindrop", MinCluster: m.cluster})
	}
	c.maybeCompleteLocked()
}

// appendLocked checkpoints rec, failing the soak if the append does (see
// lease.Log.Append). Caller holds c.mu.
func (c *Coordinator) appendLocked(rec fleetCkptLine) bool {
	if err := c.ckpt.Append(rec); err != nil {
		if c.failed == nil {
			c.failed = err
		}
		c.complete()
		return false
	}
	return true
}

// Lease hands out the next unit of fuzzing work: the unit the worker still
// holds, if any (its last lease response was lost or discarded; see
// lease.Table.HeldBy), then minimization tasks (they gate completion and are
// cheap), then the lowest pending round whose generation is open.
func (c *Coordinator) Lease(req FuzzLeaseRequest) (FuzzLeaseResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.SpecHash != c.info.SuiteHash {
		return FuzzLeaseResponse{}, c.rounds.Foreign("spec", c.info.SuiteHash, req.Worker, req.SpecHash,
			"fuzz specs differ, refusing to merge incomparable results")
	}
	if c.draining || c.failed != nil || c.completedLocked() {
		return FuzzLeaseResponse{Status: campaign.LeaseDone}, nil
	}
	now := time.Now()
	c.reclaimLocked(now)
	c.rounds.Workers[req.Worker] = now

	if i := c.mins.HeldBy(req.Worker); i >= 0 {
		return c.grantMinLocked(i, req, now), nil
	}
	if i := c.rounds.HeldBy(req.Worker); i >= 0 {
		return c.grantRoundLocked(i, req, now), nil
	}
	if i := c.mins.First(lease.Pending); i >= 0 {
		return c.grantMinLocked(i, req, now), nil
	}
	c.extendScheduleLocked(now)
	// Generation barrier: a round past the open generation waits for the fold.
	if i := c.rounds.First(lease.Pending); i >= 0 && c.genOf(i) <= c.foldedGensLocked() {
		return c.grantRoundLocked(i, req, now), nil
	}
	c.maybeCompleteLocked()
	if c.completedLocked() {
		return FuzzLeaseResponse{Status: campaign.LeaseDone}, nil
	}
	return FuzzLeaseResponse{Status: campaign.LeaseWait}, nil
}

// grantRoundLocked leases round i, shipping the corpus suffix the worker is
// missing. Caller holds c.mu.
func (c *Coordinator) grantRoundLocked(i int, req FuzzLeaseRequest, now time.Time) FuzzLeaseResponse {
	c.rounds.Grant(i, req.Worker, now)
	cut := c.genCut[c.genOf(i)]
	base := req.Cursor
	if base > cut {
		base = cut
	}
	if base < 0 {
		base = 0
	}
	c.log("lease: round %d (gen %d, %d execs, corpus cut %d) -> %s (ttl %v)",
		i, c.genOf(i), c.roundExecsLocked(i), cut, req.Worker, c.rounds.TTL)
	return FuzzLeaseResponse{
		Status:   LeaseRound,
		Round:    i,
		Execs:    c.roundExecsLocked(i),
		Seed:     RoundSeed(c.spec.FuzzSeed, i),
		Corpus:   append([]CorpusEntry(nil), c.corpus[base:cut]...),
		Base:     base,
		Cursor:   cut,
		TTLNanos: int64(c.rounds.TTL),
	}
}

// grantMinLocked leases minimization task i. Caller holds c.mu.
func (c *Coordinator) grantMinLocked(i int, req FuzzLeaseRequest, now time.Time) FuzzLeaseResponse {
	c.mins.Grant(i, req.Worker, now)
	m := &c.minTasks[i]
	c.log("lease: minimize task %d (cluster %q) -> %s (ttl %v)", i, m.cluster, req.Worker, c.mins.TTL)
	return FuzzLeaseResponse{
		Status:     LeaseMinimize,
		MinID:      i,
		MinCluster: m.cluster,
		MinText:    m.text,
		MinBudget:  c.spec.MinExecs,
		TTLNanos:   int64(c.mins.TTL),
	}
}

// Credit records one result, at most once per unit: round results feed the
// generation fold, minimization results close their tasks. Duplicate
// results are discarded (they are byte-identical by the determinism
// contract — counting both would double-credit); error payloads are failed
// dispatch attempts.
func (c *Coordinator) Credit(p *FuzzResult) (campaign.CreditResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var none campaign.CreditResponse
	if p.SpecHash != c.info.SuiteHash {
		return none, c.rounds.Foreign("spec", c.info.SuiteHash, p.Worker, p.SpecHash, "discarding result")
	}
	id := unitID(p)
	tab, noun, err := c.unitLocked(p.Kind, id)
	if err == nil && tab == c.mins && p.MinCluster != c.minTasks[id].cluster {
		err = fmt.Errorf("minimize task %d cluster mismatch: coordinator has %q, result says %q",
			id, c.minTasks[id].cluster, p.MinCluster)
	}
	if err != nil {
		c.rounds.Rejected++
		return none, err
	}
	switch tab.Settle(id, p.Worker, p.Err, time.Now()) {
	case lease.Stale:
		c.log("stale error payload for %s %d from %s: discarded", noun, id, p.Worker)
		return campaign.CreditResponse{Duplicate: true}, nil
	case lease.Failed:
		c.attemptFailedLocked(tab, id, p.Worker, p.Err)
		return campaign.CreditResponse{Quarantined: tab.Slots[id].State == lease.Spent, Done: c.completedLocked()}, nil
	case lease.Discarded:
		c.log("result for dropped %s %d from %s: discarded", noun, id, p.Worker)
		return campaign.CreditResponse{Duplicate: true, Quarantined: true}, nil
	case lease.Duplicate:
		c.log("duplicate result for %s %d from %s: discarded", noun, id, p.Worker)
		return campaign.CreditResponse{Duplicate: true}, nil
	}
	rec := fleetCkptLine{Type: "min", Payload: p}
	if tab == c.rounds {
		rec.Type = "round"
		c.applyRoundLocked(p)
	} else {
		c.applyMinLocked(id, p)
	}
	if !c.appendLocked(rec) {
		// A fold over a round the checkpoint never recorded would hand later
		// rounds a corpus a resume cannot rebuild.
		return campaign.CreditResponse{Done: true}, nil
	}
	if tab == c.rounds {
		c.foldLocked()
		c.log("credit: round %d from %s (%d/%d rounds)", id, p.Worker, c.rounds.Count(lease.Done), len(c.rounds.Slots))
	} else {
		c.log("credit: minimize task %d from %s (verified=%v)", id, p.Worker, p.MinVerified)
	}
	c.maybeCompleteLocked()
	return campaign.CreditResponse{Accepted: true, Done: c.completedLocked()}, nil
}

// applyRoundLocked adds a credited round result to the running totals —
// shared by the wire path and checkpoint replay. Caller holds c.mu.
func (c *Coordinator) applyRoundLocked(p *FuzzResult) {
	c.results[p.Round] = p
	c.execs += p.Execs
	c.statesChecked += p.StatesChecked
	c.retriedChecks += p.RetriedChecks
	c.quarantinedChecks += p.QuarantinedChecks
	if p.Obs != nil {
		if c.obsMerged == nil {
			c.obsMerged = &obs.Snapshot{}
		}
		c.obsMerged.Merge(*p.Obs)
	}
}

// applyMinLocked records a credited minimization outcome — shared by the
// wire path and checkpoint replay. Caller holds c.mu.
func (c *Coordinator) applyMinLocked(i int, p *FuzzResult) {
	m := &c.minTasks[i]
	m.verified, m.minText, m.minExecs = p.MinVerified, p.MinText, p.MinExecs
}

// Heartbeat extends a live lease; refusal tells the worker it lost the
// lease and should abandon the unit.
func (c *Coordinator) Heartbeat(req FuzzHeartbeat) (campaign.HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.SpecHash != c.info.SuiteHash {
		return campaign.HeartbeatResponse{}, c.rounds.Foreign("spec", c.info.SuiteHash, req.Worker, req.SpecHash, "refusing heartbeat")
	}
	tab, _, err := c.unitLocked(req.Kind, req.ID)
	if err != nil {
		return campaign.HeartbeatResponse{}, err
	}
	if !tab.Beat(req.ID, req.Worker, req.Execs, time.Now()) {
		return campaign.HeartbeatResponse{Extended: false}, nil
	}
	return campaign.HeartbeatResponse{Extended: true, TTLNanos: int64(tab.TTL)}, nil
}

// RejectResult records a result rejected at the wire boundary; see
// lease.Table.Reject. A kind or id that names no unit is itself implausible:
// only the bad-payload counter moves.
func (c *Coordinator) RejectResult(kind string, id int, worker, cause string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tab, _, err := c.unitLocked(kind, id)
	if err != nil {
		c.rounds.BadPayloads++
		return
	}
	if tab.Reject(id, worker, cause) == lease.Failed {
		c.attemptFailedLocked(tab, id, worker, cause)
	}
}

// Degraded reports whether the soak dropped rounds: the census is missing
// their fuzzing work, and the CLI exits with the degraded code.
func (c *Coordinator) Degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rounds.Count(lease.Spent) > 0
}

// Stats snapshots the control-plane counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := c.mins.Count(lease.Spent)
	return Stats{
		Rounds:         len(c.rounds.Slots),
		RoundsCredited: c.rounds.Count(lease.Done),
		RoundsDropped:  c.rounds.Count(lease.Spent),
		MinTasks:       len(c.minTasks),
		MinDone:        c.mins.Count(lease.Done) + dropped,
		MinDropped:     dropped,
		Resumed:        c.resumed,
		Redispatched:   c.rounds.Redispatched,
		Duplicates:     c.rounds.Duplicates,
		Rejected:       c.rounds.Rejected,
		BadPayloads:    c.rounds.BadPayloads,
		Heartbeats:     c.rounds.Heartbeats,
		Generations:    c.foldedGensLocked(),
		PerWorker:      c.rounds.PerWorkerCopy(),
	}
}

// Census folds the credited rounds — in round order, which checkpoint
// replay and live crediting both preserve — into the deduplicated bug
// census. With an exec budget the value is a pure function of the spec;
// with a duration budget it is still independent of result arrival order
// over the same credited round set.
func (c *Coordinator) Census() report.FuzzCensus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.censusLocked()
}

func (c *Coordinator) censusLocked() report.FuzzCensus {
	var events []obs.Event
	rep := map[string]string{}
	for _, res := range c.results {
		if res == nil {
			continue
		}
		for _, v := range res.Violations {
			events = append(events, v.Event())
			key := v.ClusterKey()
			if cur, ok := rep[key]; !ok || v.Text < cur {
				rep[key] = v.Text
			}
		}
	}
	clusters := report.TriageEvents(events)
	minByCluster := map[string]*minTask{}
	minVerified := 0
	for i := range c.minTasks {
		m := &c.minTasks[i]
		minByCluster[m.cluster] = m
		if m.verified {
			minVerified++
		}
	}
	out := report.FuzzCensus{
		SpecHash:          c.info.SuiteHash,
		FS:                c.spec.FS,
		Bugs:              c.spec.Bugs,
		App:               c.spec.App,
		BudgetExecs:       c.spec.BudgetExecs,
		BudgetNanos:       c.spec.BudgetNanos,
		Execs:             c.execs,
		StatesChecked:     c.statesChecked,
		QuarantinedChecks: c.quarantinedChecks,
		RoundsCredited:    c.rounds.Count(lease.Done),
		RoundsDropped:     c.rounds.Count(lease.Spent),
		CorpusSize:        len(c.corpus),
		CoverageEdges:     len(c.coverage),
		MinTasks:          len(c.minTasks),
		MinVerified:       minVerified,
	}
	for _, tc := range clusters {
		key := tc.Kind + "|" + tc.FS + "|" + tc.Prefix
		b := report.FuzzBug{TriageCluster: tc, Reproducer: rep[key]}
		if m := minByCluster[key]; m != nil && m.verified && m.minText != "" {
			b.Reproducer = m.minText
			b.Minimized = true
			b.Verified = true
		}
		out.Clusters = append(out.Clusters, b)
	}
	return out
}

// MergedObs is the soak's metrics snapshot: the merged per-round engine
// collectors plus the fleet-level series (fuzz-execs, corpus-entries,
// coverage-edges, distinct-bugs) /debug/metrics exposes.
func (c *Coordinator) MergedObs() *obs.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &obs.Snapshot{}
	if c.obsMerged != nil {
		s.Merge(*c.obsMerged)
	}
	if s.Counters == nil {
		s.Counters = make(map[string]int64, 4)
	}
	cen := c.censusLocked()
	s.Counters[obs.CtrFuzzExecs.String()] = int64(c.execs)
	s.Counters[obs.CtrCorpusEntries.String()] = int64(len(c.corpus))
	s.Counters[obs.CtrCoverageEdges.String()] = int64(len(c.coverage))
	s.Counters[obs.CtrDistinctBugs.String()] = int64(len(cen.Clusters))
	return s
}

// Corpus returns a copy of the canonical corpus log (tests, corpus export).
func (c *Coordinator) Corpus() []CorpusEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]CorpusEntry(nil), c.corpus...)
}

// Drain stops issuing new leases; in-flight units may still credit.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
}

// Wait blocks until the soak completes, fails, or ctx is cancelled
// (lease.Await: drain, then the partial census with ctx's error).
func (c *Coordinator) Wait(ctx context.Context) (report.FuzzCensus, error) {
	err := lease.Await(ctx, c.doneCh, c.Drain, func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.reclaimLocked(time.Now())
		return c.rounds.Count(lease.Leased) + c.mins.Count(lease.Leased)
	})
	c.mu.Lock()
	failed := c.failed
	c.mu.Unlock()
	if failed != nil {
		return report.FuzzCensus{}, failed
	}
	return c.Census(), err
}

// Close releases the checkpoint file handle.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	ck := c.ckpt
	c.ckpt = nil
	c.mu.Unlock()
	return ck.Close()
}

// attachCheckpoint loads, validates, and replays the checkpoint, then opens
// it for appending. Replay pushes the recorded round credits and drops
// through the same fold state machine as live crediting — the fold is a
// pure function of the resolved round set, so the reconstructed corpus,
// coverage, and minimization queue are exactly the dead coordinator's.
func (c *Coordinator) attachCheckpoint(path string) error {
	st, err := LoadCheckpoint(path)
	if err != nil {
		return err
	}
	if err := st.Validate(c.info.SuiteHash); err != nil {
		return err
	}
	if st.Skipped > 0 {
		c.log("checkpoint: skipped %d corrupt/torn lines in %s", st.Skipped, path)
	}
	if st.Header != nil && st.Header.StartUnixNanos != 0 {
		// Duration budgets measure wall-clock from the soak's original start:
		// a killed-and-resumed soak keeps its deadline instead of restarting
		// the clock.
		c.soakStart = time.Unix(0, st.Header.StartUnixNanos)
	}

	// Rounds first (credits, then drops), in round order; the fold advances
	// as generations resolve. ensureRoundLocked grows the duration-mode
	// schedule to cover recorded indices.
	sort.Slice(st.Rounds, func(i, j int) bool { return st.Rounds[i].Round < st.Rounds[j].Round })
	for _, p := range st.Rounds {
		if p.SpecHash != c.info.SuiteHash || p.Round < 0 || !c.ensureRoundLocked(p.Round) {
			c.log("checkpoint: ignoring foreign round record (round %d, hash %s)", p.Round, p.SpecHash)
			continue
		}
		if c.rounds.Slots[p.Round].State == lease.Done {
			continue
		}
		c.rounds.Slots[p.Round] = lease.Slot{State: lease.Done, Worker: p.Worker}
		c.applyRoundLocked(p)
		c.resumed++
		c.rounds.PerWorker["checkpoint"]++
	}
	for _, d := range st.Drops {
		if d.Round < 0 || !c.ensureRoundLocked(d.Round) {
			c.log("checkpoint: ignoring out-of-range drop record (round %d)", d.Round)
			continue
		}
		if c.rounds.Slots[d.Round].State != lease.Pending {
			continue
		}
		c.rounds.Slots[d.Round] = lease.Slot{State: lease.Spent, ErrWorker: d.Worker, LastErr: d.Err, Attempts: d.Attempts}
	}
	c.foldLocked()

	// Minimization records match by cluster key: task ids are deterministic,
	// but the key is self-describing and survives id-order evolution.
	byCluster := map[string]int{}
	for i := range c.minTasks {
		byCluster[c.minTasks[i].cluster] = i
	}
	for _, p := range st.Mins {
		i, ok := byCluster[p.MinCluster]
		if !ok || p.SpecHash != c.info.SuiteHash {
			c.log("checkpoint: ignoring foreign minimize record (cluster %q)", p.MinCluster)
			continue
		}
		if c.mins.Slots[i].State != lease.Pending {
			continue
		}
		c.mins.Slots[i] = lease.Slot{State: lease.Done, Worker: p.Worker}
		c.applyMinLocked(i, p)
		c.resumed++
		c.mins.PerWorker["checkpoint"]++
	}
	for _, cluster := range st.MinDrops {
		if i, ok := byCluster[cluster]; ok && c.mins.Slots[i].State == lease.Pending {
			c.mins.Slots[i].State = lease.Spent
		}
	}

	var header any
	if st.Header == nil {
		header = fleetCkptLine{
			Type:           "fleet",
			CampaignID:     c.info.CampaignID,
			SpecHash:       c.info.SuiteHash,
			FS:             c.spec.FS,
			RoundExecs:     c.spec.RoundExecs,
			GenRounds:      c.spec.GenRounds,
			BudgetExecs:    c.spec.BudgetExecs,
			BudgetNanos:    c.spec.BudgetNanos,
			StartUnixNanos: c.soakStart.UnixNano(),
		}
	}
	if c.ckpt, err = lease.OpenLog("fleet", path, header); err != nil {
		return err
	}
	if c.resumed > 0 {
		c.log("checkpoint: resumed %d units from %s (%d generations folded, corpus %d)",
			c.resumed, path, c.foldedGensLocked(), len(c.corpus))
	}
	c.maybeCompleteLocked()
	return nil
}

// ensureRoundLocked grows the duration-mode schedule (whole generations at
// a time) to cover round r; in exec mode it only reports whether r is in
// range. Caller owns the coordinator exclusively (construction) or holds
// c.mu.
func (c *Coordinator) ensureRoundLocked(r int) bool {
	if r < len(c.rounds.Slots) {
		return true
	}
	if c.execMode {
		return false
	}
	c.growRoundsLocked((c.genOf(r)+1)*c.spec.GenRounds - len(c.rounds.Slots))
	return true
}

// ServeHTTP serves the fuzzing wire protocol.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// handleMetrics exposes MergedObs in Prometheus text format, followed by the
// lease tables' control-plane series.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s := c.MergedObs()
	c.mu.Lock()
	leases := lease.MetricsText(c.rounds, c.mins)
	c.mu.Unlock()
	w.Header().Set("Content-Type", obs.MetricsContentType)
	s.WriteMetrics(w)
	io.WriteString(w, leases) //nolint:errcheck // client gone = client's problem
}
