// Package campaign is the distributed campaign runner: a stdlib-only
// coordinator/worker subsystem that cuts a workload suite into numbered
// leases, dispatches them to worker processes over HTTP/JSON, and folds
// the results back into one Census.
//
// The design extends the engine's determinism contract one level up. The
// coordinator cuts the suite once (harness.NewCut, at unitSize): a lease is
// one unit of that cut — a run of adjacent op-trie subtrees — identified by
// (unit index, suite fingerprint).
// A worker rebuilds the same cut, runs each unit it is granted through
// harness.Run on one prefix memo that outlives its leases, and posts back
// the frozen census. Every census field is a sum or a maximum, and the fold
// sorts the violation and quarantine ledgers back into suite order, so the
// folded census reproduces the serial one byte for byte — for any worker
// count, any lease-expiry schedule, and any mid-campaign worker kill.
// Crediting is at-most-once (a resurrected slow worker's duplicate result is
// discarded), and completed units are appended to an append-only checkpoint
// so a killed coordinator restarts with -resume and skips finished work.
//
// Fault tolerance is the lease engine's (internal/lease): a worker that dies
// mid-shard lets its lease expire and the shard is re-dispatched; a shard
// that keeps failing spends a bounded number of dispatch attempts and then
// moves to the shard-quarantine ledger instead of failing the campaign or
// looping, so the campaign completes degraded with a partial census over the
// healthy shards.
package campaign

import (
	"cmp"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"time"

	"chipmunk/internal/ace"
	"chipmunk/internal/app/kvwork"
	"chipmunk/internal/core"
	"chipmunk/internal/harness"
	"chipmunk/internal/lease"
	"chipmunk/internal/obs"
	"chipmunk/internal/pmem"
	"chipmunk/internal/workload"
)

// Spec is the run selection: the system under test, the engine tuning and
// the work (a suite, or a fuzz soak). BindFlags declares its engine flags,
// and every mode resolves it through Options — a local run, the -serve and
// -fuzz coordinators, which are authoritative for it, and the workers,
// which fetch it on handshake. The suite itself never crosses the wire,
// only its name plus the fingerprint that proves both sides generated the
// same workloads.
type Spec struct {
	// FS and Bugs select the system under test (Bugs in -bugs syntax:
	// "none", "all", or a comma-separated ID list).
	FS   string `json:"fs"`
	Bugs string `json:"bugs"`
	// Suite names the ACE suite (ace.SuiteByName); Max truncates it
	// (0 = whole suite).
	Suite string `json:"suite"`
	Max   int    `json:"max,omitempty"`
	// Cap, CheckTimeoutNanos, and ExhaustiveLimit are the engine tuning
	// knobs every worker must share for results to be comparable.
	Cap int `json:"cap"`
	// Workers is ignored by the engine; it stays on the wire (and in the
	// campaign ID, which hashes the spec's JSON) so specs, checkpoints and
	// IDs written before its removal keep matching.
	//
	// Deprecated: ignored; kept because the bench module sets it.
	Workers           int   `json:"workers"`
	CheckTimeoutNanos int64 `json:"check_timeout_ns"`
	ExhaustiveLimit   int   `json:"exhaustive_limit"`
	// Faults/FaultSeed enable the deterministic pmem fault injector.
	Faults    bool   `json:"faults,omitempty"`
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// Stats asks for a metrics collector on every run (Options attaches a
	// fresh one), so shard censuses carry obs snapshots, merged as the
	// serial path would.
	Stats bool `json:"stats,omitempty"`
	// App selects an application-level workload and contract checker
	// ("" = FS-oracle checking); AppBugs is its -app-bugs spec. Every
	// worker must resolve the same app for shard results to be mergeable.
	App     string `json:"app,omitempty"`
	AppBugs string `json:"app_bugs,omitempty"`

	// Fuzz switches the campaign into fleet-fuzzing mode (internal/fleet):
	// leases become coverage-guided fuzzing rounds and minimization tasks
	// instead of suite shards, and corpus entries travel over the wire.
	// Workers auto-detect the mode from the handshake spec.
	Fuzz bool `json:"fuzz,omitempty"`
	// FuzzSeed is the soak's master seed: round r runs with RNG seed
	// splitmix64(FuzzSeed, r), so each round's behaviour is a pure function
	// of (spec, round index, corpus cut).
	FuzzSeed int64 `json:"fuzz_seed,omitempty"`
	// BudgetExecs / BudgetNanos bound the soak; exactly one is nonzero
	// (-budget EXECS or -budget DURATION). Exec budgets make the whole soak
	// deterministic; duration budgets bound wall-clock instead.
	BudgetExecs int   `json:"budget_execs,omitempty"`
	BudgetNanos int64 `json:"budget_ns,omitempty"`
	// RoundExecs is how many fuzzing iterations one round lease covers;
	// MinExecs the engine-invocation budget of one minimization task;
	// GenRounds the generation width (round r's corpus is the canonical
	// fold of everything discovered in generations before r/GenRounds).
	RoundExecs int `json:"round_execs,omitempty"`
	MinExecs   int `json:"min_execs,omitempty"`
	GenRounds  int `json:"gen_rounds,omitempty"`
}

// BuildSuite generates the spec's workload suite locally.
func (s Spec) BuildSuite() ([]workload.Workload, error) {
	suite, err := ace.SuiteByName(s.Suite)
	if err != nil {
		return nil, err
	}
	if s.Max > 0 && s.Max < len(suite) {
		suite = suite[:s.Max]
	}
	return suite, nil
}

// BindFlags declares the engine flags on fl, bound into s: the target
// (-fs, -bugs), the engine tuning (-cap, -check-timeout, -exhaustive-limit),
// the fault model (-faults, -fault-seed) and the application (-app,
// -app-bugs). Options parses the values, and its Resolve looks up -fs.
func (s *Spec) BindFlags(fl *flag.FlagSet) {
	fl.StringVar(&s.FS, "fs", "nova", "file system: nova, nova-fortis, pmfs, winefs, splitfs, ext4-dax, xfs-dax")
	fl.StringVar(&s.Bugs, "bugs", "none", `injected bugs: "none", "all", or comma-separated IDs (e.g. "4,5")`)
	fl.IntVar(&s.Cap, "cap", 0, "max in-flight writes replayed per crash state (0 = exhaustive)")
	fl.DurationVar((*time.Duration)(&s.CheckTimeoutNanos), "check-timeout", core.DefaultCheckTimeout,
		"per-crash-state check deadline; hung checks are quarantined as check-timeout (negative = no deadline)")
	fl.IntVar(&s.ExhaustiveLimit, "exhaustive-limit", core.DefaultExhaustiveLimit,
		"max in-flight writes for exhaustive subset enumeration before falling back to the safety cap")
	fl.StringVar(&s.App, "app", "",
		`application-level durability checking: "kv" runs the WAL KV store workload and checks its crash contract instead of the FS oracle`)
	fl.StringVar(&s.AppBugs, "app-bugs", "none",
		`seeded application bugs for -app: "none", or comma-separated of ack-loss, bad-crc`)
	fl.BoolVar(&s.Faults, "faults", false,
		"inject pmem faults (torn stores, bit flips, media errors) into crash states")
	fl.Uint64Var(&s.FaultSeed, "fault-seed", 1, "deterministic seed for -faults")
}

// Options resolves the spec into the harness Options a run uses: the bug
// set, application and fault model parsed, and, when Stats is set, a fresh
// collector for the run's metrics.
func (s Spec) Options() (harness.Options, error) {
	set, err := harness.ParseBugSpec(s.Bugs)
	if err != nil {
		return harness.Options{}, err
	}
	if err := harness.AppByName(s.App); err != nil {
		return harness.Options{}, err
	}
	appBugs, err := kvwork.ParseBugs(s.AppBugs)
	if err != nil {
		return harness.Options{}, err
	}
	o := harness.Options{
		FS:              s.FS,
		Bugs:            set,
		Cap:             s.Cap,
		CheckTimeout:    time.Duration(s.CheckTimeoutNanos),
		ExhaustiveLimit: s.ExhaustiveLimit,
		App:             s.App,
		AppBugs:         appBugs,
	}
	if s.Faults {
		o.Faults = pmem.DefaultFaults(s.FaultSeed)
	}
	if s.Stats {
		o.Obs = obs.New()
	}
	return o, nil
}

// SpecInfo is the handshake response (GET /campaign/spec): the spec plus
// the coordinator's view of the cut suite. Workers rebuild the suite from
// Spec and its cut, and refuse to proceed on a fingerprint or cut mismatch —
// diverged generators must fail loudly, never merge silently.
type SpecInfo struct {
	CampaignID string `json:"campaign_id"`
	Spec       Spec   `json:"spec"`
	// SuiteHash is workload.FormatSuiteHash of the coordinator's suite.
	SuiteHash string `json:"suite_hash"`
	// Shards counts the cut's units, ShardSize bounds one, Cut hashes them.
	Shards    int    `json:"shards"`
	ShardSize int    `json:"shard_size"`
	Cut       string `json:"cut,omitempty"`
	Workloads int    `json:"workloads"`
}

// LeaseRequest asks for the next shard (POST /campaign/lease).
type LeaseRequest struct {
	Worker    string `json:"worker"`
	SuiteHash string `json:"suite_hash"`
	// Cut is the worker's SpecInfo.Cut. A worker that sends none is an
	// older build that would run suite-index shards: it is refused.
	Cut string `json:"cut,omitempty"`
}

// Lease states returned to workers.
const (
	// LeaseGranted carries a shard to run.
	LeaseGranted = "lease"
	// LeaseWait means every remaining shard is leased out — poll again.
	LeaseWait = "wait"
	// LeaseDone means the campaign is complete (or draining): exit.
	LeaseDone = "done"
)

// LeaseResponse answers a lease request.
type LeaseResponse struct {
	Status string `json:"status"`
	// Shard is the granted unit (Status=="lease") and Start/End its
	// positions in the cut's order (harness.Cut.Units).
	Shard int `json:"shard,omitempty"`
	Start int `json:"start,omitempty"`
	End   int `json:"end,omitempty"`
	// TTLNanos is the lease deadline budget: a result posted after the
	// coordinator re-dispatched the shard is discarded as a duplicate.
	TTLNanos int64 `json:"ttl_ns,omitempty"`
}

// ShardPayload is one completed unit's result (POST /campaign/result): the
// census of harness.Run over the unit's workloads, with its quarantine
// ledger, and the violation ledger beside it. Fold puts the ledgers back in
// suite order, so the distributed census is byte-identical to the serial
// one.
type ShardPayload struct {
	Shard     int    `json:"shard"`
	Worker    string `json:"worker"`
	SuiteHash string `json:"suite_hash"`

	core.Census
	// Violations is the unit's violation ledger; the census's own
	// Violations (violation_total) is their count.
	Violations []core.Violation `json:"violations,omitempty"`

	// Err reports a shard whose engine call failed — an engine error, a
	// contained worker panic, or a tripped shard watchdog. The coordinator
	// counts it as a failed dispatch attempt: the shard is re-dispatched
	// until -shard-retries attempts are spent, then quarantined.
	Err string `json:"err,omitempty"`

	// Sum is the payload's FNV-64a self-checksum (PayloadSum over the JSON
	// encoding with Sum cleared). The coordinator recomputes it at the wire
	// boundary and rejects mismatches with HTTP 400, so a truncated or
	// corrupted body is re-dispatched instead of mis-credited.
	Sum string `json:"sum,omitempty"`
}

// PayloadSum computes the payload's wire self-checksum (lease.Sum with the
// Sum field cleared).
func PayloadSum(p *ShardPayload) string {
	cp := *p
	cp.Sum = ""
	return lease.Sum(&cp)
}

// ShardQuarantine is one entry of the shard-quarantine ledger: a shard that
// failed -shard-retries dispatch attempts (lease expiries, structured error
// payloads, rejected results) and was removed from the campaign instead of
// failing it or looping forever. It mirrors the per-check quarantine one
// level up: the campaign completes with a partial census, and the ledger is
// never silent — persisted in the checkpoint, rendered in CAMPAIGN.txt,
// counted in obs, and reflected in the degraded exit code.
type ShardQuarantine struct {
	// Shard and Start/End identify the unit that went unchecked (LeaseResponse).
	Shard int `json:"shard"`
	Start int `json:"start"`
	End   int `json:"end"`
	// SuiteHash pins the ledger entry to its campaign, like shard credits.
	SuiteHash string `json:"suite_hash,omitempty"`
	// Err is the failure the entry cites (lease.Table.Fail's rule) and
	// Worker the worker that attempt ran on; Attempts the failed attempts.
	Worker   string `json:"worker,omitempty"`
	Err      string `json:"err,omitempty"`
	Attempts int    `json:"attempts"`
}

// String renders the ledger entry deterministically (reports, tests).
func (q ShardQuarantine) String() string {
	return fmt.Sprintf("shard %d [%d,%d): %d failed attempts, worker %q: %s",
		q.Shard, q.Start, q.End, q.Attempts, q.Worker, q.Err)
}

// HeartbeatRequest extends a live lease (POST /campaign/heartbeat): a
// worker legitimately still running its shard posts one every TTL/3, so
// lease durations can stay conservative without losing long shards — an
// expiry then means the worker is actually gone.
type HeartbeatRequest struct {
	Worker    string `json:"worker"`
	Shard     int    `json:"shard"`
	SuiteHash string `json:"suite_hash"`
	// StatesChecked piggybacks the shard's live progress (crash states
	// checked so far) on the heartbeat, feeding the coordinator's
	// /campaign/status rate and ETA without a separate progress wire call.
	StatesChecked int `json:"states_checked,omitempty"`
}

// HeartbeatResponse and CreditResponse answer the heartbeat and result verbs
// of both distributed modes (see lease.HeartbeatResponse); Quarantined on a
// credit means the shard is in the shard-quarantine ledger.
type (
	HeartbeatResponse = lease.HeartbeatResponse
	CreditResponse    = lease.CreditResponse
)

// Fold merges unit payloads into one Census plus the violation list,
// exactly as a serial harness.Run builds them: the census by Merge, the
// violation and quarantine ledgers stable-sorted by the suite index (index,
// by workload name) of their workload. Elapsed is the sum of unit
// wall-clocks (the campaign's total compute, not its wall-clock — the
// coordinator reports its own wall-clock separately).
func Fold(payloads []*ShardPayload, index map[string]int) (*harness.Census, []core.Violation) {
	c := &harness.Census{}
	var viol []core.Violation
	for _, p := range payloads {
		if p != nil {
			c.Merge(p.Census)
			viol = append(viol, p.Violations...)
		}
	}
	slices.SortStableFunc(viol, func(a, b core.Violation) int {
		return cmp.Compare(index[a.Workload.Name], index[b.Workload.Name])
	})
	slices.SortStableFunc(c.Quarantined, func(a, b core.Quarantine) int {
		return cmp.Compare(index[a.Workload], index[b.Workload])
	})
	return c, viol
}

// Fingerprint renders the deterministic identity of a census: every field
// the serial == distributed contract covers, and nothing wall-clock. Two
// runs of the same suite — serial, or distributed across any worker count,
// lease schedule, and kill pattern — produce byte-identical fingerprints.
// Obs is reduced to its DeterministicCounters (stage durations are
// measurements, and the materialization/fault counters are per-attempt).
func Fingerprint(c *harness.Census, viol []core.Violation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workloads=%d states=%d deduped=%d truncated=%d fences=%d max-inflight=%d inflight=%d/%d violations=%d suppressed-quarantine=%d\n",
		c.Workloads, c.StatesChecked, c.StatesDeduped, c.TruncatedFences,
		c.Fences, c.MaxInFlight, c.InFlightSum, c.InFlightN,
		c.Violations, c.SuppressedQuarantine)
	for _, v := range viol {
		b.WriteString(v.String())
		b.WriteByte('\n')
	}
	for _, q := range c.Quarantined {
		b.WriteString(q.String())
		b.WriteByte('\n')
	}
	if c.Obs != nil {
		ctrs := c.Obs.DeterministicCounters()
		names := make([]string, 0, len(ctrs))
		for name := range ctrs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "obs %s=%d\n", name, ctrs[name])
		}
	}
	return b.String()
}

var (
	// ErrDuplicateName refuses a suite in which two workloads share a name:
	// the fold orders the ledgers by the suite index of a workload's name.
	ErrDuplicateName = errors.New("campaign: suite has duplicate workload names")
	// ErrIndexCheckpoint refuses a checkpoint whose header has a shard_size:
	// an older build's suite-index shards, not this build's units.
	ErrIndexCheckpoint = errors.New("campaign: checkpoint holds suite-index shards written by an older build — rerun without -resume")
)

// unitSize bounds a campaign's units as harness.Run bounds them for two
// workers, at a 32nd of the suite (56 units on seq2), but never below
// minUnit: a lease costs a round trip, a checkpoint record and a fresh fork
// chain, so a small suite is a few leases, no more than 32-workload index
// shards would be (seq1 2, seq1dax 4; at 32, seq1dax's subtrees cut into 5).
func unitSize(n int) int { return max(minUnit, n/32) }

const minUnit = 40

// suiteCut returns the campaign's cut of suite and the hash of its units.
func suiteCut(suite []workload.Workload) (harness.Cut, string) {
	cut := harness.NewCut(suite, unitSize(len(suite)))
	var b []byte
	for _, x := range slices.Concat(cut.Order, cut.Units) {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	h := fnv.New64a()
	h.Write(b)
	return cut, fmt.Sprintf("%016x", h.Sum64())
}

// suiteIndex maps each workload's name to its suite index.
func suiteIndex(suite []workload.Workload) (map[string]int, error) {
	index := make(map[string]int, len(suite))
	for i, w := range suite {
		if _, dup := index[w.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateName, w.Name)
		}
		index[w.Name] = i
	}
	return index, nil
}
