package fleet

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"chipmunk/internal/campaign"
	"chipmunk/internal/core"
	"chipmunk/internal/fuzz"
	"chipmunk/internal/lease"
	"chipmunk/internal/obs"
	"chipmunk/internal/workload"
)

// DefaultRoundTimeout is the worker-side watchdog for one round or
// minimization task. Rounds are small (DefaultRoundExecs fuzzing
// iterations), so a generous but finite deadline keeps a hung target from
// pinning a fleet slot.
const DefaultRoundTimeout = 10 * time.Minute

// WorkerConfig configures RunWorker. Its fields mean what
// campaign.WorkerConfig's do; RoundTimeout is the per-unit engine watchdog
// (0 = DefaultRoundTimeout, negative = no watchdog).
type WorkerConfig struct {
	Addr, ID     string
	RoundTimeout time.Duration
	DialBudget   time.Duration
	Journal      *obs.Journal
	OnLease      func(FuzzLeaseResponse)
	Logf         func(format string, args ...any)
	Info         *campaign.SpecInfo
}

// RunWorker joins the fuzzing soak at wc.Addr and processes leases — rounds
// and minimization tasks — until the coordinator reports the soak done, the
// context is cancelled, or an error is fatal.
//
// On top of the lease engine's fault-model contract
// (internal/lease/worker.go), fuzz workers maintain a local cache of the
// coordinator's corpus log. Every entry is verified against its
// self-checksum on receipt, and a round lease carries (Base, Cursor) so the
// worker rebuilds exactly the log prefix the round must fuzz against; any
// mismatch discards the response — the re-grant path resends it intact — so
// a corrupted wire can slow a worker down but never make it fuzz against the
// wrong corpus.
func RunWorker(ctx context.Context, wc WorkerConfig) error {
	w := &lease.Worker{Addr: wc.Addr, ID: wc.ID, DialBudget: wc.DialBudget, Timeout: wc.RoundTimeout, Logf: wc.Logf}
	w.Init(DefaultRoundTimeout)

	info := wc.Info
	if info == nil {
		var err error
		if info, err = campaign.FetchSpec(ctx, wc.Addr, w.DialBudget); err != nil {
			return err
		}
	}
	if !info.Spec.Fuzz {
		return fmt.Errorf("fleet: coordinator %s serves a suite campaign, not a fuzz soak (use the campaign worker)", wc.Addr)
	}
	// Fingerprint check, the fuzz-mode analogue of the suite-hash check: a
	// worker whose spec normalization or hash diverged must stop here, not
	// merge incomparable rounds.
	spec := Normalize(info.Spec)
	if localHash := SpecHash(spec); localHash != info.SuiteHash {
		return fmt.Errorf(
			"fleet: spec fingerprint mismatch: coordinator %s has %s, this worker computes %s — binaries differ, refusing to fuzz",
			wc.Addr, info.SuiteHash, localHash)
	}
	opts, err := spec.Options()
	if err != nil {
		return err
	}
	sys, cfg, err := opts.Resolve()
	if err != nil {
		return err
	}
	w.Logf("worker %s joined fuzz soak %s: %s, seed %d, %d execs/round, %d rounds/gen, fingerprint %s",
		w.ID, info.CampaignID, sys.Name, spec.FuzzSeed, spec.RoundExecs, spec.GenRounds, info.SuiteHash)
	return w.Work(ctx, "soak", &fuzzJob{Worker: w, wc: wc, fs: spec.FS, hash: info.SuiteHash, cfg: cfg, kv: spec.App == "kv"})
}

// fuzzJob is the fuzzing side of the worker loop: the handshake's constants
// and the corpus cache, then the unit currently held and what its run
// produced.
type fuzzJob struct {
	*lease.Worker
	wc    WorkerConfig
	fs    string
	hash  string // the soak's spec fingerprint
	cfg   core.Config
	kv    bool
	cache []CorpusEntry

	held FuzzLeaseResponse
	// kind and id are the held unit's identity on the wire (ResultRound and
	// the round index, or ResultMinimize and the minimization unit id).
	kind  string
	id    int
	start time.Time
	// node is the running round's fuzzer; heartbeats read its progress.
	node   atomic.Pointer[Node]
	result *FuzzResult
	// memo serves the minimization units run since the last round: a fold
	// opens units for mutants of one workload, so a batch re-checks the same
	// op prefixes. A round drops it.
	memo *core.PrefixMemo
}

func unitID(p *FuzzResult) int {
	if p.Kind == ResultMinimize {
		return p.MinID
	}
	return p.Round
}

func (j *fuzzJob) Lease(ctx context.Context) (lease.Poll, time.Duration, error) {
	var l FuzzLeaseResponse
	err := j.Post(ctx, PathFuzzLease, FuzzLeaseRequest{Worker: j.ID, SpecHash: j.hash, Cursor: len(j.cache)}, &l, 0)
	if err != nil {
		return 0, 0, fmt.Errorf("fleet: lease: %w", err)
	}
	switch l.Status {
	case campaign.LeaseDone:
		return lease.PollDone, 0, nil
	case campaign.LeaseWait:
		return lease.PollWait, 0, nil
	case LeaseRound, LeaseMinimize:
	default:
		j.Logf("worker %s: unknown lease status %q; discarding (corrupt response?)", j.ID, l.Status)
		return lease.PollWait, 0, nil
	}
	if j.wc.OnLease != nil {
		j.wc.OnLease(l)
	}
	if l.Status == LeaseMinimize {
		j.kind, j.id = ResultMinimize, l.MinID
		j.Logf("worker %s: minimizing cluster %q (unit %d, budget %d)", j.ID, l.MinCluster, l.MinID, l.MinBudget)
	} else {
		if !absorbLease(&j.cache, l, j.ID, j.Logf) {
			return lease.PollAgain, 0, nil
		}
		j.kind, j.id = ResultRound, l.Round
		j.Logf("worker %s: running round %d (%d execs, seed %d, corpus %d)", j.ID, l.Round, l.Execs, l.Seed, l.Cursor)
	}
	j.held, j.result = l, nil
	j.node.Store(nil)
	return lease.PollRun, time.Duration(l.TTLNanos), nil
}

// absorbLease applies a round lease's corpus delta to the worker's cache,
// verifying geometry and per-entry checksums. false = the response was
// corrupted in flight; the caller discards it and re-polls.
func absorbLease(cache *[]CorpusEntry, l FuzzLeaseResponse, id string, logf func(string, ...any)) bool {
	if l.Base < 0 || l.Base > len(*cache) || l.Base > l.Cursor ||
		l.Base+len(l.Corpus) != l.Cursor {
		logf("worker %s: lease round %d corpus delta [%d,+%d) fails geometry check against cursor %d (cache %d); discarding (corrupt response?)",
			id, l.Round, l.Base, len(l.Corpus), l.Cursor, len(*cache))
		return false
	}
	for i, e := range l.Corpus {
		if e.Sum == "" || e.Sum != EntrySum(e) {
			logf("worker %s: lease round %d corpus entry %d fails its checksum; discarding (corrupt response?)",
				id, l.Round, l.Base+i)
			return false
		}
	}
	*cache = append((*cache)[:l.Base], l.Corpus...)
	return true
}

// failure is the held unit's error payload.
func (j *fuzzJob) failure(msg string) *FuzzResult {
	return &FuzzResult{Kind: j.kind, Worker: j.ID, SpecHash: j.hash, Err: msg,
		Round: j.held.Round, MinID: j.held.MinID, MinCluster: j.held.MinCluster}
}

func (j *fuzzJob) Beat(ctx context.Context, budget time.Duration, n int) (bool, error) {
	hb := FuzzHeartbeat{Worker: j.ID, SpecHash: j.hash, Kind: j.kind, ID: j.id}
	if node := j.node.Load(); node != nil {
		hb.Execs = node.Progress()
	}
	var resp campaign.HeartbeatResponse
	if err := j.Post(ctx, PathFuzzHeartbeat, hb, &resp, budget); err != nil {
		return false, err
	}
	if !resp.Extended {
		j.wc.Journal.Emit(obs.Event{
			Type: "heartbeat-refused", FS: j.fs, Workload: "fuzz",
			Worker: j.ID, Sys: -1, Rank: j.id,
			Detail: "coordinator refused lease extension (expired or re-dispatched); abandoning " + hb.Kind,
		})
	}
	return resp.Extended, nil
}

func (j *fuzzJob) Run(ctx context.Context) error {
	j.start = time.Now()
	// Each unit gets a trace of its own, keyed by (soak, unit) like a
	// campaign shard's: fuzz workload names restart with every round.
	j.cfg.Tracer = obs.NewTracer(j.wc.Journal, 0, 0).Derive(fmt.Sprintf("%s %s %d", j.hash, j.kind, j.id))
	if j.kind == ResultMinimize {
		if j.memo == nil {
			j.memo = core.NewPrefixMemo()
		}
		return j.minimize(ctx)
	}
	j.memo = nil
	node, err := NewNode(j.cfg, j.held.Seed, j.kv, j.cache[:j.held.Cursor])
	if err != nil {
		return err
	}
	j.node.Store(node)
	res, err := node.RunRound(ctx, j.held.Execs)
	if err != nil {
		return err
	}
	res.Worker, res.SpecHash, res.Round = j.ID, j.hash, j.held.Round
	res.ElapsedNanos = time.Since(j.start).Nanoseconds()
	j.result = res
	return nil
}

// minimize shrinks the leased reproducer with fuzz.Minimize, then re-runs
// the minimized workload once and reports every (kind, FS) it trips — the
// census only labels a task's reproducer "minimized" on a shrink that still
// trips its own. An unnamed reproducer is named after its text, not the unit.
func (j *fuzzJob) minimize(ctx context.Context) error {
	w, err := workload.Parse(j.held.MinText)
	if err != nil {
		return fmt.Errorf("reproducer unparseable: %w", err)
	}
	if w.Name == "" {
		w.Name = fmt.Sprintf("fleet-min-%016x", entryKey(CorpusEntry{Text: j.held.MinText}))
	}
	minimized, execs, err := fuzz.Minimize(ctx, j.memo, j.cfg, w, j.held.MinBudget)
	if err != nil {
		return err
	}
	res, err := j.memo.Run(ctx, j.cfg, minimized)
	if err != nil {
		return err
	}
	// Verification reads a cluster's stable coordinates (kind, FS): the
	// trace prefix changes whenever minimization drops an op, so the full
	// key cannot survive a successful shrink.
	tripped := []string{} // non-nil: the result speaks for every task of its unit
	for _, v := range res.Violations {
		if pair := v.Kind.String() + "|" + v.FS; !slices.Contains(tripped, pair) {
			tripped = append(tripped, pair)
		}
	}
	slices.Sort(tripped)
	wantKind, wantFS := ClusterKindFS(j.held.MinCluster)
	j.result = &FuzzResult{
		Kind: ResultMinimize, Worker: j.ID, SpecHash: j.hash,
		MinID: j.held.MinID, MinCluster: j.held.MinCluster, MinText: workload.Format(minimized), MinExecs: execs + 1,
		MinVerified: slices.Contains(tripped, wantKind+"|"+wantFS), MinTripped: &tripped,
	}
	return nil
}

// Report posts the unit's result — engine errors, contained panics and
// tripped watchdogs as payloads with Err set: one failed dispatch attempt.
func (j *fuzzJob) Report(ctx context.Context, o lease.RunOutcome, runErr error) (bool, error) {
	payload := j.result
	switch o {
	case lease.RunLost:
		return false, nil
	case lease.RunFailed:
		payload = j.failure(runErr.Error())
	case lease.RunWatchdog:
		if j.kind == ResultMinimize {
			payload = j.failure(fmt.Sprintf("minimize watchdog: exceeded %v", j.Timeout))
			break
		}
		payload = j.failure(fmt.Sprintf("round watchdog: engine exceeded %v", j.Timeout))
		j.wc.Journal.Emit(obs.Event{
			Type: "shard-watchdog", FS: j.fs, Workload: "fuzz",
			Worker: j.ID, Sys: -1, Rank: j.held.Round, Detail: payload.Err,
		})
	}
	payload.Sum = ResultSum(payload)
	var credit campaign.CreditResponse
	if err := j.Post(ctx, PathFuzzResult, payload, &credit, 0); err != nil {
		return false, fmt.Errorf("fleet: result: %w", err)
	}
	switch {
	case payload.Err != "":
		j.Logf("worker %s: %s %d failed (%s); coordinator decides", j.ID, payload.Kind, unitID(payload), payload.Err)
	case credit.Duplicate:
		j.Logf("worker %s: %s %d was already credited (re-dispatched past our lease)", j.ID, payload.Kind, unitID(payload))
	case credit.Accepted:
		j.Logf("worker %s: %s %d credited", j.ID, payload.Kind, unitID(payload))
	}
	return credit.Done, nil
}
