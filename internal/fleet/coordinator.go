package fleet

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"time"

	"chipmunk/internal/campaign"
	"chipmunk/internal/lease"
	"chipmunk/internal/obs"
	"chipmunk/internal/report"
)

// CoordinatorConfig configures NewCoordinator. Spec must have Fuzz set and
// exactly one of BudgetExecs/BudgetNanos nonzero; defaulted knobs are
// normalized before hashing, so workers see the resolved values. The other
// fields mean what campaign.CoordinatorConfig's do, with Retries bounding the
// attempts of a round or minimization task before it is dropped, and Journal
// receiving one event per dropped round or task.
type CoordinatorConfig struct {
	Spec           campaign.Spec
	LeaseTTL       time.Duration
	Retries        int
	CheckpointPath string
	Journal        *obs.Journal
	Logf           func(format string, args ...any)
}

// minTask is one first-seen violation cluster's minimization. Tasks are
// created at generation folds, in sorted cluster-key order, so their ids are
// a pure function of the credited round set, like everything else in the
// fold. Tasks with one text share a unit (a mins table slot), whose result
// settles them all. A task whose unit spends its attempts resolves
// unverified: the census falls back to the unminimized representative.
type minTask struct {
	cluster string
	text    string      // representative reproducer (minimization input)
	unit    int         // its mins table slot
	res     *FuzzResult // the result that settled it; nil until then
}

// verified: the minimized form re-tripped the task's (kind, FS).
func (m *minTask) verified() bool {
	if m.res == nil {
		return false
	}
	if tripped := m.res.MinTripped; tripped != nil {
		kind, fs := ClusterKindFS(m.cluster)
		return slices.Contains(*tripped, kind+"|"+fs)
	}
	return m.res.MinVerified // a result without the set settles only the task it names
}

// Stats summarizes the soak's control-plane history: the lease counters of
// both tables and the round and minimization accounting.
type Stats struct {
	lease.Counters
	Rounds, RoundsCredited, RoundsDropped int
	MinTasks, MinDone, MinDropped         int
	Resumed, Generations                  int
}

// String renders the control-plane summary the -serve frontend prints.
func (st Stats) String() string {
	var notes []string
	if st.MinTasks > 0 {
		notes = append(notes, fmt.Sprintf("minimization: %d/%d tasks done (%d dropped)", st.MinDone, st.MinTasks, st.MinDropped))
	}
	if st.RoundsDropped > 0 {
		notes = append(notes, fmt.Sprintf("DEGRADED: %d rounds dropped after exhausting their dispatch attempts — their fuzzing work is missing from the census",
			st.RoundsDropped))
	}
	return st.Report(fmt.Sprintf("fleet: %d/%d rounds credited in %d generations", st.RoundsCredited, st.Rounds, st.Generations),
		st.Resumed, "units", notes...)
}

// Coordinator owns a fleet-fuzzing soak on the lease shell: the
// round/generation state machine, the canonical corpus log, the
// minimization queue, and the bug census. It is an http.Handler serving the
// fuzzing wire protocol (plus the campaign handshake path).
//
// Rounds and minimization tasks are two lease tables over one set of
// counters, all under the shell's Mu: the generation fold reads the rounds
// and grows the mins in one critical section. A spent round is a dropped one
// — it resolves its generation, is persisted (the fold depends on it) and
// marks the soak degraded; a spent minimization task is done, unverified.
type Coordinator struct {
	lease.Shell
	info    campaign.SpecInfo
	spec    campaign.Spec
	journal *obs.Journal

	// execMode: BudgetExecs bounds the soak (fully deterministic).
	// Otherwise BudgetNanos bounds wall-clock from soakStart (persisted in
	// the checkpoint header, so a resumed soak keeps its original deadline).
	execMode  bool
	soakStart time.Time

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
	minTasks    []minTask
	leads       []int          // by unit: its first task, whose cluster and text it leases
	clusterTask map[string]int // cluster key -> its task

	execs             int
	statesChecked     int
	quarantinedChecks int
	obsMerged         *obs.Snapshot
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
			CampaignID: campaign.RunID("f", spec, hash),
			Spec:       spec,
			SuiteHash:  hash,
			Shards:     total,
			ShardSize:  spec.RoundExecs,
			Workloads:  spec.BudgetExecs,
		},
		spec:        spec,
		journal:     cfg.Journal,
		soakStart:   time.Now(),
		execMode:    execMode,
		rounds:      lease.NewTable(total, cfg.LeaseTTL, cfg.Retries, ctr),
		results:     make([]*FuzzResult, total),
		mins:        lease.NewTable(0, cfg.LeaseTTL, cfg.Retries, ctr),
		coverage:    map[uint64]bool{},
		genCut:      []int{0},
		clusterTask: map[string]int{},
	}
	mux := c.Init(cfg.Logf, []lease.Kind{
		{Name: ResultRound, SpentAs: "dropped", Group: spec.GenRounds, Table: c.rounds},
		{Name: ResultMinimize, SpentAs: "dropped", Table: c.mins},
	}, func() any { return c.Status() }, c.MergedObs)
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

	if cfg.CheckpointPath != "" {
		if err := c.attachCheckpoint(cfg.CheckpointPath); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Info returns the soak identity served on handshake. The campaign.SpecInfo
// fields are reinterpreted for fuzz mode: SuiteHash is the spec fingerprint
// (SpecHash), Shards the round count (0 while a duration budget is open),
// ShardSize the round exec count, Workloads the exec budget.
func (c *Coordinator) Info() campaign.SpecInfo { return c.info }

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
// tasks for first-seen violation clusters. Caller holds c.Mu.
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
		c.Log("fold: generation %d closed (rounds [%d,%d)): +%d corpus entries (%d total, %d edges)",
			g, lo, hi, admitted, len(c.corpus), len(c.coverage))

		// First-seen clusters open minimization tasks. The representative is
		// the lexicographically smallest reproducer text in this generation —
		// stable under any arrival order — and ids follow sorted cluster-key
		// order, so the whole queue is a pure function of the fold.
		rep := map[string]string{}
		for _, v := range viols {
			key := v.ClusterKey()
			if _, seen := c.clusterTask[key]; seen {
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
			t := len(c.minTasks)
			c.clusterTask[k] = t
			c.minTasks = append(c.minTasks, minTask{cluster: k, text: rep[k]})
			c.joinLocked(t)
			c.Log("minimize: task %d for cluster %q in unit %d", t, k, c.minTasks[t].unit)
		}
	}
}

// joinLocked adds task t to the unit of the latest task with its text, if
// that unit is open or settled by a result that speaks for every task (which
// settles t too); after a drop or a result without the tripped set, t opens
// a unit with a fresh attempt budget. Caller holds c.Mu.
func (c *Coordinator) joinLocked(t int) {
	m := &c.minTasks[t]
	for i := t - 1; i >= 0; i-- {
		if q := &c.minTasks[i]; q.text == m.text {
			if q.res == nil && c.mins.Slots[q.unit].State != lease.Spent || q.res != nil && q.res.MinTripped != nil {
				m.unit, m.res = q.unit, q.res
				return
			}
			break
		}
	}
	c.openUnitLocked(t)
}

// openUnitLocked opens a unit for tasks, which share a text. Caller holds c.Mu.
func (c *Coordinator) openUnitLocked(tasks ...int) {
	for _, t := range tasks {
		c.minTasks[t].unit = len(c.leads)
	}
	c.leads = append(c.leads, tasks[0])
	c.mins.Grow(1)
}

func (c *Coordinator) leadLocked(u int) *minTask { return &c.minTasks[c.leads[u]] }

// extendScheduleLocked appends one more generation of rounds in duration
// mode when the previous ones are fully folded and the wall-clock budget is
// still open. Caller holds c.Mu.
func (c *Coordinator) extendScheduleLocked(now time.Time) {
	if c.execMode || c.budgetClosed {
		return
	}
	if now.Sub(c.soakStart) >= time.Duration(c.spec.BudgetNanos) {
		c.budgetClosed = true
		c.Log("budget: wall-clock budget spent; no new generations")
		return
	}
	if len(c.rounds.Slots) != c.foldedGensLocked()*c.spec.GenRounds {
		return // the current generation block is still in flight
	}
	c.growRoundsLocked(c.spec.GenRounds)
}

// completedLocked reports whether the soak is finished: every scheduled
// round resolved and folded, the budget closed (duration mode), and every
// minimization task done. Caller holds c.Mu.
func (c *Coordinator) completedLocked() bool {
	if !c.execMode && !c.budgetClosed {
		return false
	}
	return c.foldedGensLocked()*c.spec.GenRounds >= len(c.rounds.Slots) && c.mins.Open() == 0
}

func (c *Coordinator) maybeCompleteLocked() {
	if c.completedLocked() {
		c.Complete()
	}
}

// reclaimLocked expires overdue leases for re-dispatch. Caller holds c.Mu.
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
// whatever waited on the unit move on. Caller holds c.Mu.
func (c *Coordinator) attemptFailedLocked(tab *lease.Table, i int, worker, cause string) {
	s := &tab.Slots[i]
	switch {
	case s.State != lease.Spent:
		noun := "round"
		if tab == c.mins {
			noun = "minimize unit"
		}
		c.Log("%s %d attempt %d/%d failed (worker %s): %s — re-dispatching",
			noun, i, s.Attempts, tab.Retries, worker, cause)
		return
	case tab == c.rounds:
		c.Log("round DROPPED: round %d after %d failed attempts, worker %q: %s",
			i, s.Attempts, s.ErrWorker, s.LastErr)
		c.journal.Emit(obs.Event{
			Type: "fuzz-round-drop", FS: c.spec.FS, Workload: "fuzz",
			Worker: s.ErrWorker, Sys: -1, Rank: i, Detail: s.LastErr,
		})
		c.AppendLocked(fleetCkptLine{Type: "drop", Round: i, Worker: s.ErrWorker, Err: s.LastErr, Attempts: s.Attempts})
		c.foldLocked()
	default:
		m := c.leadLocked(i)
		c.Log("minimize unit %d DROPPED after %d failed attempts: census keeps the unminimized reproducer", i, s.Attempts)
		c.journal.Emit(obs.Event{
			Type: "fuzz-min-drop", FS: c.spec.FS, Workload: "fuzz",
			Worker: s.ErrWorker, Sys: -1, Rank: i, Detail: m.cluster + ": " + s.LastErr,
		})
		for t := range c.minTasks { // one record per task the unit held
			if q := &c.minTasks[t]; q.unit == i && q.res == nil {
				c.AppendLocked(fleetCkptLine{Type: "mindrop", MinCluster: q.cluster})
			}
		}
	}
	c.maybeCompleteLocked()
}

// Lease hands out the next unit of fuzzing work: the unit the worker still
// holds, if any (its last lease response was lost or discarded; see
// lease.Table.HeldBy), then minimization units (they gate completion and are
// cheap), then the lowest pending round whose generation is open.
func (c *Coordinator) Lease(req FuzzLeaseRequest) (FuzzLeaseResponse, error) {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if req.SpecHash != c.info.SuiteHash {
		return FuzzLeaseResponse{}, c.rounds.Foreign("spec", c.info.SuiteHash, req.Worker, req.SpecHash,
			"fuzz specs differ, refusing to merge incomparable results")
	}
	if c.StoppedLocked() || c.completedLocked() {
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
// missing. Caller holds c.Mu.
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
	c.Log("lease: round %d (gen %d, %d execs, corpus cut %d) -> %s (ttl %v)",
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

// grantMinLocked leases minimization unit i. Caller holds c.Mu.
func (c *Coordinator) grantMinLocked(i int, req FuzzLeaseRequest, now time.Time) FuzzLeaseResponse {
	c.mins.Grant(i, req.Worker, now)
	m := c.leadLocked(i)
	c.Log("lease: minimize unit %d (cluster %q) -> %s (ttl %v)", i, m.cluster, req.Worker, c.mins.TTL)
	return FuzzLeaseResponse{
		Status:     LeaseMinimize,
		MinID:      i,
		MinCluster: m.cluster,
		MinText:    m.text,
		MinBudget:  c.spec.MinExecs,
		TTLNanos:   int64(c.mins.TTL),
	}
}

// Credit records one result, at most once (lease.Shell.SettleLocked): round
// results feed the generation fold, minimization results settle their unit's
// tasks, and error payloads are failed dispatch attempts.
func (c *Coordinator) Credit(p *FuzzResult) (lease.CreditResponse, error) {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if p.SpecHash != c.info.SuiteHash {
		return lease.CreditResponse{}, c.rounds.Foreign("spec", c.info.SuiteHash, p.Worker, p.SpecHash, "discarding result")
	}
	id, tab := unitID(p), c.rounds
	if p.Kind == ResultMinimize {
		tab = c.mins
		if id >= 0 && id < len(c.mins.Slots) && p.MinCluster != c.leadLocked(id).cluster {
			c.rounds.Rejected++
			return lease.CreditResponse{}, fmt.Errorf("minimize unit %d cluster mismatch: coordinator has %q, result says %q",
				id, c.leadLocked(id).cluster, p.MinCluster)
		}
	}
	switch o, resp, err := c.SettleLocked(p.Kind, id, p.Worker, p.Err); {
	case err != nil || resp.Duplicate:
		return resp, err
	case o == lease.Failed:
		c.attemptFailedLocked(tab, id, p.Worker, p.Err)
		return lease.CreditResponse{Quarantined: tab.Slots[id].State == lease.Spent, Done: c.completedLocked()}, nil
	}
	rec := fleetCkptLine{Type: "min", Payload: p}
	if tab == c.rounds {
		rec.Type = "round"
		c.applyRoundLocked(p)
	} else {
		c.applyMinLocked(id, p)
	}
	if !c.AppendLocked(rec) {
		// A fold over a round the checkpoint never recorded would hand later
		// rounds a corpus a resume cannot rebuild.
		return lease.CreditResponse{Done: true}, nil
	}
	if tab == c.rounds {
		c.foldLocked()
		c.Log("credit: round %d from %s (%d/%d rounds)", id, p.Worker, c.rounds.Count(lease.Done), len(c.rounds.Slots))
	} else {
		c.Log("credit: minimize unit %d from %s (tripped %v)", id, p.Worker, p.MinTripped)
	}
	c.maybeCompleteLocked()
	return lease.CreditResponse{Accepted: true, Done: c.completedLocked()}, nil
}

// applyRoundLocked adds a credited round result to the running totals —
// shared by the wire path and checkpoint replay. Caller holds c.Mu.
func (c *Coordinator) applyRoundLocked(p *FuzzResult) {
	c.results[p.Round] = p
	c.execs += p.Execs
	c.statesChecked += p.StatesChecked
	c.quarantinedChecks += p.QuarantinedChecks
	if p.Obs != nil {
		if c.obsMerged == nil {
			c.obsMerged = &obs.Snapshot{}
		}
		c.obsMerged.Merge(*p.Obs)
	}
}

// minCountsLocked tallies tasks by state (Done once settled, else their
// unit's) and counts the verified ones. Caller holds c.Mu.
func (c *Coordinator) minCountsLocked() (n [4]int, verified int) {
	for i := range c.minTasks {
		m, st := &c.minTasks[i], lease.Done
		if m.res == nil {
			st = c.mins.Slots[m.unit].State
		}
		n[st]++
		if m.verified() {
			verified++
		}
	}
	return n, verified
}

// applyMinLocked settles unit u's tasks — shared by the wire path and
// checkpoint replay. A result without the tripped set (from a worker
// predating shared units) settles only the task it names; the rest move to
// a new unit. Caller holds c.Mu.
func (c *Coordinator) applyMinLocked(u int, p *FuzzResult) {
	var rest []int
	for t := range c.minTasks {
		switch m := &c.minTasks[t]; {
		case m.unit != u || m.res != nil:
		case p.MinTripped != nil || m.cluster == p.MinCluster:
			m.res = p
		default:
			rest = append(rest, t)
		}
	}
	if len(rest) > 0 {
		c.openUnitLocked(rest...)
	}
}

// Heartbeat extends a live lease; refusal tells the worker it lost the
// lease and should abandon the unit.
func (c *Coordinator) Heartbeat(req FuzzHeartbeat) (lease.HeartbeatResponse, error) {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if req.SpecHash != c.info.SuiteHash {
		return lease.HeartbeatResponse{}, c.rounds.Foreign("spec", c.info.SuiteHash, req.Worker, req.SpecHash, "refusing heartbeat")
	}
	return c.BeatLocked(req.Kind, req.ID, req.Worker, req.Execs)
}

// RejectResult records a result rejected at the wire boundary; see
// lease.Table.Reject. A kind or id that names no unit is itself implausible:
// only the bad-payload counter moves.
func (c *Coordinator) RejectResult(kind string, id int, worker, cause string) {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	k, err := c.UnitLocked(kind, id)
	if err != nil {
		c.rounds.BadPayloads++
		return
	}
	if k.Table.Reject(id, worker, cause) == lease.Failed {
		c.attemptFailedLocked(k.Table, id, worker, cause)
	}
}

// Stats snapshots the control-plane counters.
func (c *Coordinator) Stats() Stats {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	n, _ := c.minCountsLocked()
	return Stats{
		Counters: c.rounds.Snapshot(),
		Rounds:   len(c.rounds.Slots), RoundsCredited: c.rounds.Count(lease.Done), RoundsDropped: c.rounds.Count(lease.Spent),
		MinTasks: len(c.minTasks), MinDone: n[lease.Done] + n[lease.Spent], MinDropped: n[lease.Spent],
		Resumed: c.rounds.Resumed + c.mins.Resumed, Generations: c.foldedGensLocked(),
	}
}

// Census folds the credited rounds — in round order, which checkpoint
// replay and live crediting both preserve — into the deduplicated bug
// census. With an exec budget the value is a pure function of the spec;
// with a duration budget it is still independent of result arrival order
// over the same credited round set.
func (c *Coordinator) Census() report.FuzzCensus {
	c.Mu.Lock()
	defer c.Mu.Unlock()
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
	_, minVerified := c.minCountsLocked()
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
		if i, ok := c.clusterTask[key]; ok && c.minTasks[i].verified() && c.minTasks[i].res.MinText != "" {
			b.Reproducer = c.minTasks[i].res.MinText
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
	c.Mu.Lock()
	defer c.Mu.Unlock()
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
	c.Mu.Lock()
	defer c.Mu.Unlock()
	return append([]CorpusEntry(nil), c.corpus...)
}

// Wait blocks until the soak completes, fails, or ctx is cancelled
// (lease.Shell.Await: drain, then the partial census with ctx's error).
func (c *Coordinator) Wait(ctx context.Context) (report.FuzzCensus, error) {
	failed, err := c.Await(ctx, func() {
		c.Mu.Lock()
		defer c.Mu.Unlock()
		c.reclaimLocked(time.Now())
	})
	if failed != nil {
		return report.FuzzCensus{}, failed
	}
	return c.Census(), err
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
	// The spec hash covers every knob that shapes the deterministic fold —
	// seed, budgets, round and generation geometry — so one comparison
	// refuses every flavor of "wrong checkpoint".
	if h := st.Header; h != nil && h.SpecHash != c.info.SuiteHash {
		return fmt.Errorf("fleet: checkpoint spec fingerprint mismatch: file has %s (fs=%s), soak is %s — wrong checkpoint or changed fuzz spec",
			h.SpecHash, h.FS, c.info.SuiteHash)
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
			c.Log("checkpoint: ignoring foreign round record (round %d, hash %s)", p.Round, p.SpecHash)
			continue
		}
		if c.rounds.Slots[p.Round].State != lease.Done {
			c.rounds.Resume(p.Round, p.Worker)
			c.applyRoundLocked(p)
		}
	}
	for _, d := range st.Drops {
		if d.Round < 0 || !c.ensureRoundLocked(d.Round) {
			c.Log("checkpoint: ignoring out-of-range drop record (round %d)", d.Round)
			continue
		}
		if c.rounds.Slots[d.Round].State != lease.Pending {
			continue
		}
		c.rounds.Slots[d.Round] = lease.Slot{State: lease.Spent, ErrWorker: d.Worker, LastErr: d.Err, Attempts: d.Attempts}
	}
	c.foldLocked()

	// Minimization records match by cluster key, which survives id-order
	// evolution. Drops first: one names each task its unit held, and the
	// tasks that joined the text later get a unit of their own, as live.
	gone := map[int]bool{}
	for _, cluster := range st.MinDrops {
		if i, ok := c.clusterTask[cluster]; ok {
			gone[i] = true
			c.mins.Slots[c.minTasks[i].unit].State = lease.Spent
		}
	}
	rest := make([][]int, len(c.leads))
	for t := range c.minTasks {
		if u := c.minTasks[t].unit; !gone[t] && c.mins.Slots[u].State == lease.Spent {
			rest[u] = append(rest[u], t)
		}
	}
	for _, tasks := range rest {
		if len(tasks) > 0 {
			c.openUnitLocked(tasks...)
		}
	}
	// A result names its unit's lead, or the task it settles.
	for _, p := range st.Mins {
		i, ok := c.clusterTask[p.MinCluster]
		if !ok || p.SpecHash != c.info.SuiteHash {
			c.Log("checkpoint: ignoring foreign minimize record (cluster %q)", p.MinCluster)
			continue
		}
		if u := c.minTasks[i].unit; c.mins.Slots[u].State == lease.Pending && c.minTasks[i].res == nil {
			c.mins.Resume(u, p.Worker)
			c.applyMinLocked(u, p)
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
	if err := c.Attach("fleet", path, st.Skipped, header); err != nil {
		return err
	}
	c.maybeCompleteLocked()
	return nil
}

// ensureRoundLocked grows the duration-mode schedule (whole generations at
// a time) to cover round r; in exec mode it only reports whether r is in
// range. Caller owns the coordinator exclusively (construction) or holds
// c.Mu.
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

// FuzzStatus is one point-in-time view of a fleet-fuzzing soak, served at
// lease.PathStatus and rendered at lease.PathDash: the shared
// lease.Status (its counts are the rounds') plus the soak's identity, rounds
// and generations, corpus, throughput and bug census.
type FuzzStatus struct {
	lease.Status
	SpecHash   string `json:"spec_hash"`
	RoundExecs int    `json:"round_execs"`
	GenRounds  int    `json:"gen_rounds"`
	// Budget: exactly one of BudgetExecs / BudgetSec is nonzero.
	BudgetExecs int     `json:"budget_execs,omitempty"`
	BudgetSec   float64 `json:"budget_sec,omitempty"`

	// Rounds = Pending+Leased+Done+Dropped; in duration mode it grows a
	// generation at a time until the wall-clock budget closes. Rounds of
	// generation g lease only once generation g-1 has folded — the barrier
	// the corpus determinism rests on — and RoundMap marks it with '|'.
	Rounds      int    `json:"rounds"`
	Dropped     int    `json:"dropped"`
	Generations int    `json:"generations"`
	RoundMap    string `json:"round_map"`

	// Corpus and coverage as of the last fold; Execs and ExecsPerSec count
	// credited rounds only.
	CorpusSize    int     `json:"corpus_size"`
	CoverageEdges int     `json:"coverage_edges"`
	Execs         int     `json:"execs"`
	ExecsPerSec   float64 `json:"execs_per_sec"`

	// Bug census as of the credited rounds; Min* count minimization tasks.
	DistinctBugs int `json:"distinct_bugs"`
	MinPending   int `json:"min_pending"`
	MinLeased    int `json:"min_leased"`
	MinDone      int `json:"min_done"`
	MinVerified  int `json:"min_verified"`
}

// Status snapshots the soak (lease.Shell.StatusLocked).
func (c *Coordinator) Status() FuzzStatus {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	st := c.StatusLocked(time.Now(), int64(c.statesChecked))
	st.CampaignID, st.FS = c.info.CampaignID, c.spec.FS
	n, verified := c.minCountsLocked()
	f := FuzzStatus{
		Status: st, SpecHash: c.info.SuiteHash, RoundExecs: c.spec.RoundExecs, GenRounds: c.spec.GenRounds,
		BudgetExecs: c.spec.BudgetExecs, BudgetSec: time.Duration(c.spec.BudgetNanos).Seconds(),
		Rounds: st.Dash.Units, Dropped: st.Dash.Spent, Generations: c.foldedGensLocked(), RoundMap: st.Dash.Map,
		CorpusSize: len(c.corpus), CoverageEdges: len(c.coverage), Execs: c.execs, DistinctBugs: len(c.clusterTask),
		MinPending: n[lease.Pending], MinLeased: n[lease.Leased], MinDone: n[lease.Done] + n[lease.Spent], MinVerified: verified,
	}
	if st.ElapsedSec > 0 {
		f.ExecsPerSec = float64(c.execs) / st.ElapsedSec
	}
	budget := fmt.Sprintf("%d execs", f.BudgetExecs)
	if f.BudgetSec > 0 {
		budget = fmt.Sprintf("%.0fs", f.BudgetSec)
	}
	f.Dash.Title = "fuzz soak " + c.info.CampaignID
	f.Dash.About = fmt.Sprintf("%s (spec %s, %d execs/round, %d rounds/gen)", c.spec.FS, c.info.SuiteHash, c.spec.RoundExecs, c.spec.GenRounds)
	f.Dash.Facts = []string{
		fmt.Sprintf("gen %d · %d execs · %.1f execs/sec · corpus %d (%d edges) · %d distinct bugs · budget %s",
			f.Generations, f.Execs, f.ExecsPerSec, f.CorpusSize, f.CoverageEdges, f.DistinctBugs, budget),
		fmt.Sprintf("minimization: %d done (%d re-verified) · %d running · %d pending", f.MinDone, f.MinVerified, f.MinLeased, f.MinPending),
	}
	return f
}
