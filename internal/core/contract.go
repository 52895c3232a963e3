package core

import (
	"chipmunk/internal/obs"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

// This file is the pluggable crash-contract API. The engine's job ends at
// producing mounted, recovered crash states; what "correct" means for such a
// state is a contract, and contracts are pluggable: the classic FS-oracle
// comparison (oracle_checker.go) is merely the default Checker. An
// application-level checker — e.g. the WAL KV store's durability contract in
// internal/app/kvwork — receives exactly the same crash states and judges
// them against the application's own acknowledgement semantics instead.

// CheckContext describes one crash state to a Checker: when the simulated
// crash happened relative to the workload's system calls, and the state's
// replay coordinates.
type CheckContext struct {
	// Phase says whether the crash interrupted a call (PhaseMid) or fell
	// between calls (PhasePost).
	Phase Phase
	// Sys is the implicated op index (-1 when the crash point precedes any
	// call). For PhaseMid, Ops[Sys] is the call in flight.
	Sys int
	// AckedOps is the acknowledged-operation high-water mark: the number of
	// workload ops that had fully returned when the crash hit. Ops[AckedOps:]
	// had not completed. It is also the index of the oracle state captured
	// just after the last completed call (OracleStates[AckedOps]).
	AckedOps int
	// Fence is the 1-based fence ordinal the state was generated at (0 for
	// post-syscall states, which have no fence); Rank is the state's
	// canonical rank among the distinct subsets checked at that crash point;
	// Subset holds the replayed in-flight write indices (nil = all fenced).
	// Together they are the state's replay coordinates in reports and the
	// run journal.
	Fence  int
	Rank   int
	Subset []int
}

// Finding is one failed contract check.
type Finding struct {
	// Kind classifies the violation for triage and census purposes.
	Kind ViolationKind
	// Contract names the specific application contract that failed (e.g.
	// "acked-durability"); empty for the built-in FS-oracle checks, whose
	// Kind already names the contract.
	Contract string
	// Detail is the human-readable evidence.
	Detail string
}

// Checker is a pluggable correctness contract. Check is called once per
// crash state with the file system already mounted — recovery has run; a
// mount failure is classified VUnmountable by the engine before any Checker
// sees the state. It returns the first failed contract (nil = the state is
// legal), matching the engine's one-violation-per-state accounting.
//
// A run checks its crash states one at a time, but Check calls can still
// overlap: a guest abandoned at its deadline keeps running on its old
// goroutine while the replacement runner checks the following states.
// Implementations must therefore be safe for concurrent Check calls
// (read-only over their RunEnv) and must not retain fs past the call — the
// device behind it is rolled back and reused as soon as Check returns.
type Checker interface {
	// Name identifies the contract in reports ("fs-oracle", "kv").
	Name() string
	Check(fs vfs.FS, cctx *CheckContext) *Finding
}

// CrashPointPreparer is an optional Checker extension: the engine calls
// PrepareCrashPoint on the goroutine walking the trace, once per crash point,
// before any of that point's states is checked, so the checker can precompute
// a shared, immutable view (e.g. the oracle snapshot of oracle_checker.go)
// instead of re-deriving it inside every Check call. A runner started after
// the call sees what it published through the goroutine start; a Check
// abandoned at an earlier crash point may still be reading an older view, so
// anything PrepareCrashPoint builds must be published by replacement and
// treated as frozen from then on. The engine skips the
// hook entirely under Config.DisableOracleSnapshot, so implementations must
// also work without preparation (build-per-call), and the differential tests
// hold them to byte-identical verdicts either way.
type CrashPointPreparer interface {
	PrepareCrashPoint(cctx *CheckContext)
}

// RunEnv is the per-workload context a CheckerFactory builds its Checker
// from: everything the engine learned in the oracle and record passes.
type RunEnv struct {
	// Caps are the target's advertised crash-consistency guarantees.
	Caps vfs.Caps
	// Workload is the program whose crash states are being checked.
	Workload workload.Workload
	// OracleStates holds the reference model's observable state captured
	// before every op, plus the final state (len(Workload.Ops)+1 entries).
	OracleStates []vfs.State
	// OpResults are the target's live per-op outcomes from the record pass.
	OpResults []workload.Result
	// SkipUsability mirrors Config.SkipUsability for checkers implementing
	// the usability probe.
	SkipUsability bool
	// Obs is the run's metrics collector for checker-side counters (e.g.
	// oracle-snapshot-hits). Nil when observability is off; the Collector's
	// methods are nil-safe, so checkers record unconditionally.
	Obs *obs.Collector
}

// CheckerFactory builds the run's Checker. It is invoked once per workload,
// after the oracle and record passes and before any crash state is checked.
type CheckerFactory func(env RunEnv) Checker

// check converts the engine's internal crash coordinates into the public
// CheckContext handed to the run's Checker.
func (c crashCtx) check() *CheckContext {
	return &CheckContext{
		Phase:    c.phase,
		Sys:      c.sys,
		AckedOps: c.oracleIdx,
		Fence:    c.fence,
		Rank:     c.rank,
		Subset:   c.subset,
	}
}
