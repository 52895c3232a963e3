package core

import (
	"sync/atomic"

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

// CheckContext describes one crash state: when the simulated crash happened
// relative to the workload's system calls, and the state's replay
// coordinates. It is the engine's one coordinate record — the walk, the
// sandbox, the prefix memo, the fault injector's salt and the quarantine
// ledger all read it — and the Checker sees it as the engine holds it.
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

// Checker is a pluggable correctness contract, applied to every crash state
// the file system mounts — recovery has run; a mount failure is classified
// VUnmountable by the engine before any Checker sees the state. The engine
// calls Observe on the mounted state, then Judge, then Probe if the
// judgement passed; the first non-nil Finding is the state's one violation.
//
// Observe reads the mounted state into an immutable Observation, a
// function of the image alone (never of the RunEnv) that aliases nothing of
// fs; it may intern bytes through in (nil: copy). A prefix memo keeps each
// mounted image's observation (observe.go) and judges a later state with
// the same image without mounting it again. Judge is the verdict in one
// crash context; Probe runs the image-only checks due after a passing
// judgement and may change fs.
//
// A run checks its crash states one at a time, but calls can still
// overlap: a guest abandoned at its deadline keeps running on its old
// goroutine while the replacement runner checks the following states.
// Implementations must therefore be safe for concurrent calls — anything a
// call caches for later ones is built once and never changed — and must not
// retain fs or cctx past the call, nor anything fs returned without
// copying it: the device behind fs is rolled back and reused as soon as the
// call returns, fs itself is remounted on the next state, and cctx is
// rewritten for it.
//
// Judgements must be prefix-pure. harness.Run's prefix memo (memo.go) hands
// the verdicts of a crash point in op s to every workload of the suite that
// shares ops[0..s], so a verdict may depend on nothing after the crash. Let
// k = max(Sys+1, AckedOps): Judge may read only Workload.Ops[:k],
// OracleStates[:k+1] and OpResults[:k] of its RunEnv, and not the workload's
// name. TestCheckersArePrefixPure (internal/harness) holds the oracle and KV
// contracts to it by judging every state again with a contract built from a
// RunEnv cut to that bound.
type Checker interface {
	// Name identifies the contract in reports ("fs-oracle", "kv").
	Name() string
	Observe(fs vfs.FS, in *Interner) Observation
	Judge(o Observation, cctx *CheckContext) *Finding
	Probe(fs vfs.FS, o Observation) *Finding
}

// Observation is a Checker's reading of one image; Bytes is the memory it
// holds beyond what it interned.
type Observation interface{ Bytes() int }

// RunEnv is the per-workload context a CheckerFactory builds its Checker
// from: everything the engine learned in the oracle and record passes.
type RunEnv struct {
	// Caps are the target's advertised crash-consistency guarantees.
	Caps vfs.Caps
	// Workload is the program whose crash states are being checked.
	Workload workload.Workload
	// OracleStates holds the reference model's observable state captured
	// before every op, plus the final state (len(Workload.Ops)+1 entries);
	// runs forked from a common op prefix share its states, read-only.
	OracleStates []vfs.State
	// OpResults are the target's live per-op outcomes from the record pass.
	OpResults []workload.Result
	// Obs is the run's metrics collector for checker-side counters (e.g.
	// oracle-snapshot-hits). Nil when observability is off; the Collector's
	// methods are nil-safe, so checkers record unconditionally.
	Obs *obs.Collector
	// Scratch is capture storage the engine keeps beside its guest for the
	// runs' Observe calls (nil: none); see Scratch.
	Scratch *Scratch
}

// Scratch is capture storage one Observe at a time may use: take claims it
// and put gives it back. A guest phase the engine abandoned may still hold
// it while the run's next state is observed, so take claims by CAS and
// reports nil when the storage is taken, or when s is nil; the call then
// captures into storage of its own.
type Scratch struct {
	taken atomic.Bool
	scr   vfs.Scratch
}

// take claims s's storage, or returns nil.
func (s *Scratch) take() *vfs.Scratch {
	if s == nil || !s.taken.CompareAndSwap(false, true) {
		return nil
	}
	return &s.scr
}

// put gives back the storage take returned.
func (s *Scratch) put() { s.taken.Store(false) }

// CheckerFactory builds the run's Checker. It is invoked once per workload,
// after the oracle and record passes and before any crash state is checked.
type CheckerFactory func(env RunEnv) Checker
