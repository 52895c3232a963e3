// Package core is the Chipmunk engine: it records the persistence-function
// trace of a workload, constructs crash states by replaying subsets of
// in-flight writes at every store fence, mounts the target file system on
// each state, and checks the recovered state against an oracle (§3.3 of the
// paper).
package core

import (
	"context"
	"fmt"
	"time"

	"chipmunk/internal/fs/memfs"
	"chipmunk/internal/obs"
	"chipmunk/internal/persist"
	"chipmunk/internal/pmem"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

// DefaultDevSize is the simulated PM device size used for testing; the
// paper uses two 128 MB emulated devices, scaled down here because our
// workloads are the same small ACE/fuzzer programs.
const DefaultDevSize = 1 << 20

// DefaultExhaustiveLimit bounds exhaustive subset enumeration: fences with
// more in-flight writes than this fall back to DefaultSafetyCap and the
// truncation is counted (never silent — Result.TruncatedFences reports it).
// Both are configurable per run via Config.ExhaustiveLimit / SafetyCap.
const (
	DefaultExhaustiveLimit = 14
	DefaultSafetyCap       = 3
)

// Sandbox defaults: every per-crash-state check runs on a supervised runner
// with panic containment and a deadline (see sandbox.go). A check that panics or
// exceeds the deadline is retried with backoff to separate transient
// failures (pool pressure) from deterministic ones; deterministic failures
// are quarantined, never silently dropped.
const (
	DefaultCheckTimeout = time.Second
	DefaultCheckRetries = 2
)

// Config describes one system under test.
type Config struct {
	// NewFS builds the file system (with its bug set baked in) over a PM.
	// It is called once for the execution device and once per crash state.
	NewFS func(pm *persist.PM) vfs.FS
	// DevSize is the simulated device size (DefaultDevSize if zero).
	DevSize int64
	// Cap bounds the size of replayed in-flight subsets (0 = exhaustive,
	// the setting used for ACE runs; the paper uses 2 for fuzzing).
	Cap int
	// TraceStores enables instruction-level tracing (the Yat/Vinter-style
	// ablation); the engine ignores KindStore entries, so this only adds
	// overhead and statistics.
	TraceStores bool
	// SkipUsability disables the usability probe phase (used by ablations).
	SkipUsability bool
	// PostOnly restricts crash points to system-call boundaries even for
	// strong systems — the policy of disk-era tools like CrashMonkey,
	// used to measure Observation 5 (how many bugs need mid-call crashes).
	PostOnly bool
	// VinterFilter enables the recovery-read-set heuristic from Vinter
	// (§6.2): at each fence the base image is mounted once with PM reads
	// recorded, and only in-flight writes overlapping what recovery read
	// participate in subset enumeration (the full set is always checked).
	// This trades coverage for state count — data writes that only the
	// post-recovery comparison reads can be filtered away, which is
	// exactly why the paper's tool checks more states than Vinter.
	VinterFilter bool
	// CheckTimeout is the per-crash-state check deadline: a check that
	// exceeds it is abandoned and classified VTimeout (0 = the
	// DefaultCheckTimeout of 1s; negative = no deadline, panic containment
	// only).
	CheckTimeout time.Duration
	// CheckRetries bounds the retry-with-backoff applied to a check that
	// panicked or timed out, distinguishing transient failures (pool
	// pressure) from deterministic ones (0 = DefaultCheckRetries;
	// negative = no retries).
	CheckRetries int
	// DisableSandbox runs every check inline on the caller's goroutine — the
	// pre-sandbox engine, kept for differential testing. A panicking or
	// hanging guest then takes the engine down with it. Ignored (the sandbox
	// is forced) when Faults is enabled, because media errors surface as
	// panics only the sandbox can classify.
	DisableSandbox bool
	// DisableDeltaMaterialize materializes every crash state by two full
	// device copies into pooled buffers — the pre-O(diff) engine — instead
	// of the default prime-once/delta-apply/rollback-after path. Kept for
	// differential testing (mirroring DisableSandbox): results are
	// guaranteed byte-identical either way; only the copy cost differs.
	DisableDeltaMaterialize bool
	// DisableCoalescedApply materializes and reverts each crash state per
	// in-flight store instead of per coalesced byte-diff run — the
	// pre-coalescing delta engine. Kept for differential testing (results
	// are guaranteed byte-identical; only the copy count differs). Fault
	// injection always uses the per-store path regardless, because torn
	// stores are a per-store phenomenon.
	DisableCoalescedApply bool
	// DisableOracleSnapshot stops the engine from offering contracts the
	// per-crash-point preparation hook (CrashPointPreparer): every check
	// then re-derives the oracle-visible view itself, as the pre-snapshot
	// engine did. Kept for differential testing — verdicts are guaranteed
	// byte-identical; only the per-check setup cost differs.
	DisableOracleSnapshot bool
	// DisableBufferReuse gives every device-sized buffer and pooled crash
	// image a fresh allocation instead of recycling it through the
	// process-wide size-keyed pools — the pre-pooling allocation behavior.
	// Kept for differential testing: byte-identical results, pessimal
	// allocation rate.
	DisableBufferReuse bool
	// ExhaustiveLimit overrides the exhaustive-enumeration bound: fences
	// with more in-flight writes fall back to SafetyCap, counted in
	// Result.TruncatedFences (0 = DefaultExhaustiveLimit).
	ExhaustiveLimit int
	// SafetyCap is the subset-size cap truncated fences fall back to
	// (0 = DefaultSafetyCap).
	SafetyCap int
	// Faults enables the opt-in pmem fault injector for crash-state checks:
	// torn stores, seeded bit corruption, and read-time media errors (see
	// pmem.FaultConfig). Faults apply only to the materialized crash images
	// and the devices mounted on them, never to the recording pass.
	Faults *pmem.FaultConfig
	// Obs, when non-nil, enables per-stage metrics: the run records into a
	// private collector (lock-free: supervisor and runner both record into it),
	// publishes the frozen per-workload snapshot as Result.Obs, and merges it
	// into Obs at workload end so a long campaign's live totals can be watched
	// via the debug server. Nil disables collection at zero hot-path cost.
	Obs *obs.Collector
	// Journal, when non-nil, receives one event per workload, fence,
	// violation, quarantine, and sandbox retry — the append-only JSONL run
	// journal (-journal). All events are emitted by the run's one walker, in
	// walk order, so the journal's order-normalized event set depends only on
	// the suite — not on how harness.WithWorkers spread it over goroutines.
	Journal *obs.Journal
	// Tracer, when non-nil, emits deterministic "span" events into its
	// journal covering the engine stages of this run: a "workload" root span
	// with "oracle", "record", and "check" children, plus one "fence" span
	// per enumerated fence. Span IDs are pure functions of work coordinates
	// (see obs.Tracer), and all engine spans are emitted by the run's one
	// walker, so the canonical span multiset is identical across suite-level
	// worker counts — the same contract Journal events honor.
	Tracer *obs.Tracer
	// Checker selects the correctness contract applied to every mounted
	// crash state (nil = NewOracleChecker, the classic FS-oracle comparison,
	// byte-identical to the pre-seam engine). The factory runs once per
	// workload, after the oracle and record passes, so the Checker sees the
	// frozen RunEnv.
	Checker CheckerFactory
	// AppFactory builds the application under test (e.g. the WAL KV store
	// of internal/app/kvstore) for workloads containing app-level ops
	// (workload.OpKVPut etc.). The executor instantiates it lazily on both
	// the oracle and the record pass; a workload with app-level ops and a
	// nil AppFactory fails the run loudly rather than skipping ops.
	AppFactory workload.AppFactory
}

// Phase says when the simulated crash happened.
type Phase uint8

const (
	// PhaseMid is a crash during a system call.
	PhaseMid Phase = iota
	// PhasePost is a crash after a system call completed.
	PhasePost
)

func (p Phase) String() string {
	if p == PhasePost {
		return "post-syscall"
	}
	return "mid-syscall"
}

// ViolationKind classifies what the checker observed.
type ViolationKind uint8

const (
	// VUnmountable: the file system failed to mount the crash state.
	VUnmountable ViolationKind = iota
	// VUnreadable: the mounted state could not be fully read (EIO).
	VUnreadable
	// VSynchrony: a post-syscall state differs from the oracle.
	VSynchrony
	// VAtomicity: a mid-syscall state mixes pre- and post-op versions or
	// matches neither.
	VAtomicity
	// VUsability: creating or deleting files on the recovered state failed.
	VUsability
	// VOpBehavior: a system call's live result diverged from the oracle
	// (a non-crash-consistency bug, cf. §4.4).
	VOpBehavior
	// VPanic: checking the crash state panicked deterministically inside
	// the sandbox (the in-process analogue of a guest kernel crash taking
	// down one of the paper's VMs). The state is also quarantined.
	VPanic
	// VTimeout: checking the crash state exceeded the per-check deadline
	// deterministically (a recovery hang). The state is also quarantined.
	VTimeout
	// VAppContract: an application-level correctness contract failed on the
	// recovered state (a pluggable Checker's Finding — e.g. the KV store's
	// acked-durability contract). Violation.Contract names which one.
	VAppContract
)

var kindNames = [...]string{
	VUnmountable: "unmountable",
	VUnreadable:  "unreadable",
	VSynchrony:   "synchrony-violation",
	VAtomicity:   "atomicity-violation",
	VUsability:   "usability-failure",
	VOpBehavior:  "op-behavior-divergence",
	VPanic:       "check-panic",
	VTimeout:     "check-timeout",
	VAppContract: "app-contract-violation",
}

func (k ViolationKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("ViolationKind(%d)", uint8(k))
}

// Violation is one crash-consistency bug report.
type Violation struct {
	FS       string
	Workload workload.Workload
	Syscall  int    // index of the implicated call (-1 if none)
	SysName  string // rendering of that call
	Phase    Phase
	Subset   []int // in-flight write indices replayed into the crash state
	Kind     ViolationKind
	// Contract names the application contract that failed (Finding.Contract
	// of the run's pluggable Checker); empty for the built-in FS-oracle
	// checks, whose Kind already names the contract.
	Contract string
	Detail   string
}

// String renders the report the way Chipmunk's bug reports look.
func (v Violation) String() string {
	kind := v.Kind.String()
	if v.Contract != "" {
		kind = fmt.Sprintf("%s (contract %s)", kind, v.Contract)
	}
	return fmt.Sprintf("[%s] %s during %q (%s, subset %v)\n  workload: %s\n  detail: %s",
		v.FS, kind, v.SysName, v.Phase, v.Subset, v.Workload, v.Detail)
}

// Quarantine is one ledger entry for a crash state whose check failed
// deterministically inside the sandbox — it panicked or hung on every
// attempt. The entry pins down exactly which state was implicated (fence
// ordinal, canonical subset rank, byte-diff key digest) so the census can
// complete without it while never silently dropping it: the same
// "never silent" contract as TruncatedFences and StatesDeduped.
type Quarantine struct {
	// Workload names the run the state belongs to.
	Workload string
	// Fence is the 1-based fence ordinal the state was generated at
	// (0 for post-syscall states, which have no fence).
	Fence int
	// Sys is the implicated syscall index (-1 if none) and Phase the crash
	// phase, as in Violation.
	Sys   int
	Phase Phase
	// Rank is the state's canonical rank among the distinct subsets checked
	// at this crash point (the serial checking order).
	Rank int
	// Subset holds the replayed in-flight write indices (nil = all fenced).
	Subset []int
	// StateKey is the FNV-64a digest of the state's byte-diff key against
	// the fence's base image — the same identity dedup keys on.
	StateKey uint64
	// Kind is VPanic or VTimeout; Detail the deterministic one-line cause.
	Kind   ViolationKind
	Detail string
	// Stack is the captured guest stack for panics. Diagnostic only: stack
	// traces contain addresses, so Stack is excluded from the determinism
	// contract that the rest of the entry honors.
	Stack string
	// Attempts is how many times the check was tried before quarantine.
	Attempts int
}

func (q Quarantine) String() string {
	return fmt.Sprintf("quarantined [%s] %s at %s sys=%d (fence %d, rank %d, subset %v, key %016x, %d attempts): %s",
		q.Workload, q.Kind, q.Phase, q.Sys, q.Fence, q.Rank, q.Subset, q.StateKey, q.Attempts, q.Detail)
}

// Result aggregates one workload run.
type Result struct {
	Violations      []Violation
	StatesChecked   int
	Fences          int
	TruncatedFences int
	// StatesDeduped counts fence subsets whose replayed crash image was
	// byte-identical to one already checked at the same crash point and
	// were therefore skipped. Like TruncatedFences, skipping is never
	// silent: every deduplicated state is counted here.
	StatesDeduped int
	// InFlightCounts histograms the in-flight set size at each fence
	// (Observation 7 / §3.2 measurements).
	InFlightCounts []int
	// MaxInFlight is the largest in-flight set observed.
	MaxInFlight int
	// StoreEntries counts KindStore trace entries (per-store ablation).
	StoreEntries int
	// FilteredWrites counts in-flight writes the Vinter read-set heuristic
	// excluded from subset enumeration.
	FilteredWrites int
	// SuppressedViolations counts reports beyond the per-run bound.
	SuppressedViolations int
	// Quarantined is the quarantine ledger: crash states whose check
	// panicked or hung on every sandboxed attempt. Each is also classified
	// as a VPanic/VTimeout violation; the ledger carries the forensic
	// identity (fence, rank, byte-diff key) needed to re-materialize the
	// state. Bounded like Violations; overflow lands in
	// SuppressedQuarantine, never silently dropped.
	Quarantined          []Quarantine
	SuppressedQuarantine int
	// RetriedChecks counts checks that succeeded only after a sandbox
	// retry — transient failures (pool pressure), as opposed to the
	// deterministic ones the ledger records.
	RetriedChecks int
	OpResults     []workload.Result
	// Obs is the run's frozen per-stage metrics snapshot (nil when
	// Config.Obs was nil). Counters mirror the Result fields exactly —
	// they are set from them at run end — so repeated runs carry identical
	// counter totals; stage durations are wall-clock
	// measurements and vary with scheduling.
	Obs *obs.Snapshot
	// SyscallSigs holds one hash per system call summarizing the shape of
	// its persistence-function trace (kinds, bucketed sizes, fences). The
	// fuzzer uses these as its gray-box coverage signal: Go cannot
	// self-instrument kernel-style kcov, so trace-shape novelty stands in
	// for branch coverage (see DESIGN.md).
	SyscallSigs []uint64
}

// Buggy reports whether any violation was found.
func (r *Result) Buggy() bool { return len(r.Violations) > 0 }

// RunContext executes the full Chipmunk pipeline for one workload. The
// context cancels the run between crash-state checks; a cancelled run
// returns ctx's error and no result.
func RunContext(ctx context.Context, cfg Config, w workload.Workload) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.AppFactory == nil && w.HasAppOps() {
		return nil, fmt.Errorf("workload %s contains app-level ops but Config.AppFactory is nil", w.Name)
	}
	devSize := cfg.DevSize
	if devSize == 0 {
		devSize = DefaultDevSize
	}

	// Observability: a per-run collector keeps concurrent runs
	// (harness.WithWorkers) from contending on the shared one and gives the
	// workload its own attribution; the frozen snapshot is merged into cfg.Obs
	// at run end. Both stay nil when disabled.
	var col *obs.Collector
	if cfg.Obs != nil {
		col = obs.New()
	}
	var runStart time.Time
	if cfg.Obs != nil || cfg.Journal != nil {
		runStart = time.Now()
	}
	// Spans: the root "workload" span is emitted last (after its children —
	// parents complete after children), so its ID is precomputed here for
	// the children to reference.
	tr := cfg.Tracer
	runBegin := tr.Begin()
	wlSpan := tr.ID("workload", w.Name, 0, 0)

	// --- Oracle pass: run the workload on the reference model, recording
	// the observable state around every system call.
	obegin := tr.Begin()
	ot := col.Start()
	oracle := memfs.New()
	if err := oracle.Mkfs(); err != nil {
		return nil, fmt.Errorf("oracle mkfs: %w", err)
	}
	states := make([]vfs.State, 0, len(w.Ops)+1)
	var oracleErr error
	oracleResults := workload.Run(oracle, w, workload.Hooks{
		Before: func(i int, op workload.Op) {
			st, err := vfs.Capture(oracle)
			if err != nil && oracleErr == nil {
				oracleErr = err
			}
			states = append(states, st)
		},
		App: cfg.AppFactory,
	})
	if oracleErr != nil {
		return nil, fmt.Errorf("oracle capture: %w", oracleErr)
	}
	final, err := vfs.Capture(oracle)
	if err != nil {
		return nil, fmt.Errorf("oracle final capture: %w", err)
	}
	states = append(states, final)
	col.ObserveSince(obs.StageOracle, ot)
	// The oracle pass runs on the reference model, not the target, so its
	// span carries no FS attribution.
	tr.Span("oracle", obegin, wlSpan, obs.Event{Workload: w.Name})

	// --- Record pass: run the workload on the target, tracing writes. The
	// device images and the baseline crash image are pooled grabs that
	// recycle at return (workload results carry no device memory). For
	// recVol/recPers that is unconditional: no runner ever sees them. The
	// baseline is the runner's working image, but only engine code on the
	// runner touches it, never a guest phase — and when RunContext returns,
	// every runner has either exited or was abandoned inside a guest phase
	// and unwinds without touching it (arena.go has the whole protocol).
	// WrapImages requires the just-rebooted volatile == persistent
	// invariant, which two zeroed buffers satisfy.
	rbegin := tr.Begin()
	rt := col.Start()
	recVol := grabZeroBuf(int(devSize), cfg.DisableBufferReuse)
	recPers := grabZeroBuf(int(devSize), cfg.DisableBufferReuse)
	defer putBuf(recVol, cfg.DisableBufferReuse)
	defer putBuf(recPers, cfg.DisableBufferReuse)
	dev := pmem.WrapImages(recVol, recPers)
	pm := persist.New(dev)
	pm.TraceStores = cfg.TraceStores
	target := cfg.NewFS(pm)
	if err := target.Mkfs(); err != nil {
		return nil, fmt.Errorf("target mkfs: %w", err)
	}
	baseline := grabBuf(int(devSize), cfg.DisableBufferReuse)
	defer putBuf(baseline, cfg.DisableBufferReuse)
	dev.CrashImageInto(baseline)
	log := grabLog(cfg.DisableBufferReuse)
	rec := persist.NewRecorder(log)
	pm.Attach(rec)
	targetResults := workload.Run(target, w, workload.Hooks{
		Before: func(i int, op workload.Op) { log.BeginSyscall(i, op.String()) },
		After:  func(i int, op workload.Op, err error) { log.EndSyscall(i, op.String()) },
		App:    cfg.AppFactory,
	})
	pm.Detach(rec)
	caps := target.Caps()
	col.ObserveSince(obs.StageRecord, rt)
	dev.Stats().Feed(col)
	tr.Span("record", rbegin, wlSpan, obs.Event{FS: caps.Name, Workload: w.Name})

	res := &Result{OpResults: targetResults}

	// --- Live-behaviour comparison (non-crash bugs).
	for i := range targetResults {
		te, oe := targetResults[i].Err, oracleResults[i].Err
		if te != nil && te == vfs.ErrNoSpace {
			continue // the reference model has unbounded space
		}
		if (te == nil) != (oe == nil) {
			res.Violations = append(res.Violations, Violation{
				FS: caps.Name, Workload: w, Syscall: i,
				SysName: targetResults[i].Op.String(), Phase: PhasePost,
				Kind:   VOpBehavior,
				Detail: fmt.Sprintf("live result %v, oracle %v", te, oe),
			})
		}
	}

	// --- Crash-state construction and checking. The run's contract is
	// built here, once, over the frozen RunEnv; checkState applies it to
	// every mounted crash state.
	factory := cfg.Checker
	if factory == nil {
		factory = NewOracleChecker
	}
	contract := factory(RunEnv{
		Caps:          caps,
		Workload:      w,
		OracleStates:  states,
		OpResults:     targetResults,
		SkipUsability: cfg.SkipUsability,
		Obs:           col,
	})
	cbegin := tr.Begin()
	ck := &checker{ctx: ctx, cfg: cfg, caps: caps, w: w, contract: contract, res: res,
		obs: col, journal: cfg.Journal,
		tracer: tr, checkSpan: tr.ID("check", w.Name, 0, 0),
		runID: runIDs.Add(1)}
	if !cfg.DisableOracleSnapshot {
		ck.prep, _ = contract.(CrashPointPreparer)
	}
	if err := ck.supervise(baseline, log); err != nil {
		return nil, err
	}
	if !cfg.DisableBufferReuse && ck.abandoned.Load() == 0 {
		logPool.Put(log)
	}
	tr.Span("check", cbegin, wlSpan, obs.Event{
		FS: caps.Name, Workload: w.Name, States: res.StatesChecked,
	})

	// Freeze the run's metrics. Counters are copied from the Result fields
	// — not accumulated on the hot path — so snapshot counters and Result
	// agree exactly, and their determinism follows from the engine's own.
	if col != nil {
		col.Add(obs.CtrWorkloads, 1)
		col.Add(obs.CtrSpansCoalesced, ck.spansCoalesced)
		col.Add(obs.CtrFences, int64(res.Fences))
		col.Add(obs.CtrStatesChecked, int64(res.StatesChecked))
		col.Add(obs.CtrDedupHits, int64(res.StatesDeduped))
		col.Add(obs.CtrTruncatedFences, int64(res.TruncatedFences))
		col.Add(obs.CtrSandboxRetries, int64(res.RetriedChecks))
		col.Add(obs.CtrQuarantines, int64(len(res.Quarantined)+res.SuppressedQuarantine))
		col.Add(obs.CtrViolations, int64(len(res.Violations)+res.SuppressedViolations))
		snap := col.Snapshot()
		res.Obs = &snap
		cfg.Obs.Merge(snap)
	}
	tr.Span("workload", runBegin, "", obs.Event{
		FS: caps.Name, Workload: w.Name,
		Fences: res.Fences, Violations: len(res.Violations) + res.SuppressedViolations,
	})
	cfg.Journal.Emit(obs.Event{
		Type: "workload", FS: caps.Name, Workload: w.Name, Sys: -1,
		States: res.StatesChecked, Deduped: res.StatesDeduped,
		Fences: res.Fences, Violations: len(res.Violations) + res.SuppressedViolations,
		DurNanos: sinceNanos(runStart),
	})
	return res, nil
}

// sinceNanos returns the elapsed nanoseconds since start, or 0 for the
// zero time (observability disabled).
func sinceNanos(start time.Time) int64 {
	if start.IsZero() {
		return 0
	}
	return time.Since(start).Nanoseconds()
}
