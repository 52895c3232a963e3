package core

import (
	"context"
	"encoding/binary"
	"slices"
	"sync/atomic"
	"time"

	"chipmunk/internal/obs"
	"chipmunk/internal/pmem"
	"chipmunk/internal/trace"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

// maxViolationsPerRun bounds report memory; overflow is counted, never
// silently dropped.
const maxViolationsPerRun = 200

type checker struct {
	ctx  context.Context // nil behaves as Background (bare test checkers)
	cfg  Config
	caps vfs.Caps
	w    workload.Workload
	res  *Result
	// contract is the run's correctness contract (Config.Checker resolved,
	// NewOracleChecker by default), applied to every mounted crash state.
	// Checkers are read-only over their RunEnv, so a Check still running on
	// an abandoned runner cannot disturb its replacement's.
	contract Checker

	// "Owner" below is whoever owns the checker: the supervisor until it
	// starts the run's runner, then that runner, and after a takeover its
	// replacement (sandbox.go).
	//
	// obs is the run's private metrics collector and tracer its event
	// sink; both are nil-safe no-ops when observability is off. obs is
	// recorded into by the supervisor and the runner alike (atomics only);
	// spans and events are emitted by the owner exclusively, in walk order.
	// checkSpan is the precomputed ID of the run's "check" span, the parent
	// every fence span hangs off.
	obs       *obs.Collector
	tracer    *obs.Tracer
	checkSpan string

	// Supervision (sandbox.go): the current runner's slot, the runner line's
	// exit channel, the supervision clock's epoch, the context's Done channel,
	// and the resolved sandbox configuration.
	slot    *slot
	exit    chan runnerExit
	epoch   time.Time
	doneC   <-chan struct{}
	timeout time.Duration

	// cur is the walk's position.
	cur cursor

	// scratch is the rig's buffer state-key computation materializes
	// written ranges into (owner-only).
	scratch []byte

	// fenceScratch is kept across the chain's runs (arena.go), with the
	// crash device every state is mounted on — the rig's baseline wrapped —
	// and its undo log.
	fenceScratch
	dev  *pmem.Device
	undo *pmem.UndoLog

	// guest is the file system crash states are mounted on, over dev: kept
	// across states and across the chain's runs when it is a
	// vfs.Remounter, and nil until a mount builds one, again after a guest
	// phase that did not settle clean (repair) and once the chain closes.
	// capture is the storage the runs' contracts observe into
	// (RunEnv.Scratch). Both are owner-only.
	guest   vfs.FS
	capture *Scratch

	// abandoned counts guest phases the supervisor walked away from
	// (timeout/cancel); abandonedSeen is the owner's high-water mark. When
	// they differ at a fence boundary the arenas are dropped instead of
	// reset — an abandoned guest may still be reading last fence's saves.
	// Incremented by the supervisor, read by the owner.
	abandoned     atomic.Int64
	abandonedSeen int64

	// rg is the rig the run walks on: its baseline is the working image,
	// its template and page sets what a repair rebuilds it from.
	rg *rig

	// spansCoalesced counts raw write spans merged away during dedup
	// keying (owner-only; mapped to obs.CtrSpansCoalesced at run end).
	spansCoalesced int64

	// memo is the run's position in its prefix memo (memo.go).
	memo memoWalk

	// The observation table (observe.go), nil when the run shares no mounts,
	// and the rig's hasher, nil until the run's first state takes it up
	// (syncHasher); from then on it describes the working image's base.
	table  *obsTable
	hasher *imageHasher
}

// cancelled polls the run context (nil doneC: a bare test checker or a
// context that cannot be cancelled). A channel poll, not ctx.Err(): it is
// called twice per crash state and Err takes the context's mutex.
func (ck *checker) cancelled() error {
	select {
	case <-ck.doneC:
		return ck.ctx.Err()
	default:
		return nil
	}
}

// span is a half-open byte interval [lo, hi) on the device.
type span struct{ lo, hi int64 }

// crashState is one distinct crash state queued for checking: the replayed
// in-flight subset and its byte-diff dedup key. The key's (offset, length,
// bytes) runs are the state's minimal diff against the fence base, and so
// its materialization recipe: the materializer patches exactly those runs,
// one copy per merged run, and the quarantine digest hashes the key instead
// of re-deriving the diff. Under fault injection the recipe is
// the same key computed over torn write lengths (attempt). Both slices are
// arena-backed and valid until the fence after next begins (see arena.go).
// The zero value is a post-syscall state: empty subset, no key, the base
// image itself.
type crashState struct {
	subset []int
	key    string
}

// walkStage says where inside log entry cur.idx the walk stands.
type walkStage uint8

const (
	stageEntry walkStage = iota // the entry has not been looked at yet
	stageFence                  // a fence: distinct states from cur.rank on remain
	stagePost                   // a syscall end: its post-syscall state remains
)

// cursor is the walk's position. It lives on the checker rather than on the
// walking goroutine's stack so the walk can change goroutines: the
// supervisor walks until the first guest check is due and the runner picks
// up from there, and after a takeover the replacement runner resumes
// mid-fence without re-running a check or re-emitting an event. Owner-only:
// a runner writes it only while its lease is not running.
type cursor struct {
	img      []byte // the working image: baseline, advanced in place, mounted for every state
	log      *trace.Log
	idx      int
	stage    walkStage
	pending  []int
	lastDone int
	sig      uint64 // FNV-64a state of the enclosing call's trace-shape signature

	// The fence being checked (stageFence): its crash context, the next rank
	// to check, and what its closing span reports.
	cctx      CheckContext
	rank      int
	inFlight  int
	deduped   int
	spanStart time.Time
}

// walk replays the trace from the cursor on, generating crash states at
// every fence and after every system call (§3.3 "Constructing crash states").
//
// At a fence with n in-flight writes the engine checks the 2^n - 1
// non-empty subsets (in increasing subset-size order, which Observation 7
// shows finds bugs earliest), bounded by the configured cap; the full set is
// always checked because it is the next persistent base. Crash points after
// system calls use the current persistent image: writes that were never
// fenced are — correctly — absent, which is how missing-fence bugs surface.
//
// sl is the calling runner's slot. The supervisor walks with a nil slot and
// gets errNeedRunner back at the first guest check; a runner whose guest
// phase was abandoned gets errLost and must touch nothing on its way out.
func (ck *checker) walk(sl *slot) error {
	c := &ck.cur
	entries := c.log.Entries()
	for ; c.idx < len(entries); c.idx++ {
		e := entries[c.idx]
		if c.stage == stageEntry {
			if err := ck.enter(e); err != nil {
				return err
			}
		}
		if c.stage != stageEntry {
			if sl == nil {
				return errNeedRunner
			}
			if err := ck.checkPoint(sl, e.Sys); err != nil {
				return err
			}
			c.stage = stageEntry
		}
		if e.Kind == trace.KindSyscallEnd {
			if err := ck.closeOp(e.Sys); err != nil {
				return err
			}
		}
		// Advancing the persistent base past the fence is replay work. A
		// fence with nothing in flight changes no bytes and costs nothing.
		if e.Kind == trace.KindFence && len(c.pending) > 0 {
			at := ck.obs.Start()
			ck.applyFence(c.pending)
			ck.obs.ObserveSince(obs.StageReplay, at)
			c.pending = c.pending[:0]
		}
	}
	return nil
}

// enter does an entry's engine-side work — signature, statistics, and at a
// crash point either serving it from the prefix memo or the enumeration of
// its states — and leaves cur.stage saying whether guest checks are due.
func (ck *checker) enter(e trace.Entry) error {
	c := &ck.cur
	if e.Sys >= 0 && e.Kind != trace.KindSyscallBegin && e.Kind != trace.KindSyscallEnd {
		// Fold the event shape into the enclosing call's signature.
		c.sig = fnvAdd(fnvAdd(fnvAdd(c.sig, byte(e.Kind)), sizeBucket(len(e.Data))), byte(e.Off%64))
	}
	switch e.Kind {
	case trace.KindSyscallBegin:
		c.sig = fnv64a(e.Name)
	case trace.KindNT, trace.KindFlush:
		c.pending = append(c.pending, e.Seq)
	case trace.KindStore:
		ck.res.StoreEntries++
	case trace.KindFence:
		ck.res.Fences++
		ck.noteInFlight(len(c.pending))
		if len(c.pending) > 0 && ck.caps.Strong && !ck.cfg.PostOnly {
			if served, err := ck.serveMemo(e.Sys, ck.res.Fences); served || err != nil {
				return err
			}
			ck.enumerate(e.Sys)
		}
	case trace.KindSyscallEnd:
		ck.res.SyscallSigs = append(ck.res.SyscallSigs, c.sig)
		c.lastDone = e.Sys
		if ck.shouldCheckPost(e.Sys) {
			if served, err := ck.serveMemo(e.Sys, 0); served || err != nil {
				return err
			}
			ck.recordPoint(memoPoint{states: 1})
			c.stage = stagePost
		}
	}
	return nil
}

// checkPoint runs the guest checks entry cur.idx still owes: the rest of
// its fence, or its post-syscall state.
func (ck *checker) checkPoint(sl *slot, sys int) error {
	c := &ck.cur
	if c.stage == stageFence {
		if err := ck.runChecks(sl); err != nil {
			return err
		}
		ck.fenceDone(sys, len(ck.distinct))
		return nil
	}
	if err := ck.cancelled(); err != nil {
		return err
	}
	out, err := ck.checkOne(sl, crashState{}, CheckContext{Phase: PhasePost, Sys: sys, AckedOps: sys + 1})
	if err != nil {
		return err
	}
	ck.fold(out)
	return nil
}

// fenceDone emits the closing span of the fence at the cursor, which had
// states distinct states.
func (ck *checker) fenceDone(sys, states int) {
	c := &ck.cur
	ck.tracer.Span("fence", c.spanStart, ck.checkSpan, obs.Event{
		FS: ck.caps.Name, Workload: ck.w.Name,
		Fence: c.cctx.Fence, Sys: sys, Phase: c.cctx.Phase.String(),
		InFlight: c.inFlight, States: states, Deduped: c.deduped,
	})
}

// shouldCheckPost selects post-syscall crash points: every call for strong
// systems, fsync-family calls for weak ones (§3.3, §4.1). An app-level
// OpKVSync is fsync-family — the store's commit point is an fsync on its
// WAL, which is exactly when a weak system makes durability promises.
func (ck *checker) shouldCheckPost(sys int) bool {
	if sys < 0 || sys >= len(ck.w.Ops) {
		return false
	}
	if ck.caps.Strong {
		return true
	}
	switch ck.w.Ops[sys].Kind {
	case workload.OpFsync, workload.OpFdatasync, workload.OpSync, workload.OpKVSync:
		return ck.res.OpResults[sys].Err == nil
	default:
		return false
	}
}

// enumerate generates the crash states of the fence at the cursor and
// deduplicates subsets that materialize byte-identical images; the distinct
// ones are left in ck.distinct for runChecks, with the cursor at stageFence.
func (ck *checker) enumerate(sys int) {
	c := &ck.cur
	img, log, pending := c.img, c.log, c.pending
	full := pending
	if ck.cfg.VinterFilter {
		// The kept list is the checker's own: pending is the fence's full
		// set, which the last state and the next base still replay.
		reads := ck.recoveryReadSet()
		kept := ck.kept[:0]
		for _, idx := range pending {
			e := log.At(idx)
			if reads == nil || reads.Overlaps(e.Off, len(e.Data)) {
				kept = append(kept, idx)
			} else {
				ck.res.FilteredWrites++
			}
		}
		ck.kept, pending = kept, kept
	}
	n := len(pending)
	cap := ck.cfg.Cap
	truncated := false
	if cap == 0 {
		limit := ck.cfg.ExhaustiveLimit
		if limit <= 0 {
			limit = DefaultExhaustiveLimit
		}
		if n > limit {
			cap = DefaultSafetyCap
			truncated = true
		} else {
			cap = n
		}
	}
	if cap > n {
		cap = n
	}
	if truncated {
		ck.res.TruncatedFences++
	}

	ctx := fenceCtx(sys, c.lastDone)
	ctx.Fence = ck.res.Fences // enter increments before enumerating: 1-based

	c.spanStart = ck.tracer.Begin()
	dt := ck.obs.Start()

	// Stream candidate subsets in canonical rank order — size ascending,
	// lexicographic within a size, the full set last when not already the
	// final combination — deduplicating as they are generated: each
	// candidate's key is computed from the enumerator's shared recursion
	// buffer, and only the distinct ones are saved (together with their
	// diff key, which the delta materializer reuses as the replay and
	// restore recipe). Duplicates cost one key
	// computation and zero allocations; distinct states cost arena bumps,
	// not per-state allocations. Rank order is the checking order.
	//
	// Dedup key: the exact byte diff against the base image, so equal keys
	// mean equal images — no hash collisions, no silently skipped distinct
	// states. Map keys are interned views over arena-saved bytes, never
	// over the shared key scratch.
	ck.resetFenceScratch()
	seen := ck.seen
	distinct := ck.distinct[:0]
	dedupedHere := 0
	admit := func(s []int) {
		k := ck.stateKey(img, log, s, nil)
		if _, dup := seen[internKey(k)]; dup {
			ck.res.StatesDeduped++
			dedupedHere++
			return
		}
		key := internKey(ck.keyArena.save(k))
		seen[key] = struct{}{}
		distinct = append(distinct, crashState{subset: ck.subArena.save(s), key: key})
	}
	coalesced := ck.spansCoalesced
	// slices.Grow (not the cap builtin — shadowed by the subset-size cap
	// above) keeps the recursion buffer allocation-free across fences.
	ck.subsetBuf = slices.Grow(ck.subsetBuf[:0], n)
	subset := ck.subsetBuf
	for size := 1; size <= cap; size++ {
		combinations(pending, subset, 0, size, admit)
	}
	if cap < n || len(full) != len(pending) {
		// The full set is the next persistent base; always check it
		// (including when the Vinter filter kept nothing in flight).
		admit(full)
	}
	ck.distinct = distinct
	ck.obs.ObserveSince(obs.StageDedup, dt)
	ck.recordPoint(memoPoint{
		fence: ctx.Fence, inFlight: n, states: len(distinct), deduped: dedupedHere,
		filtered: len(full) - n, truncated: truncated, coalesced: ck.spansCoalesced - coalesced,
	})
	c.cctx, c.rank, c.inFlight, c.deduped = ctx, 0, n, dedupedHere
	c.stage = stageFence
}

// runChecks materializes and checks the fence's distinct subsets from
// cur.rank on. Outcomes — violations and quarantine entries — are folded in
// subset-rank order, and StatesChecked counts exactly the
// states whose check reached a classified outcome (clean, violating, or
// quarantined).
func (ck *checker) runChecks(sl *slot) error {
	c := &ck.cur
	for ; c.rank < len(ck.distinct); c.rank++ {
		if err := ck.cancelled(); err != nil {
			return err
		}
		cctx := c.cctx
		cctx.Rank = c.rank
		out, err := ck.checkOne(sl, ck.distinct[c.rank], cctx)
		if err != nil {
			return err
		}
		ck.fold(out)
	}
	return nil
}

// stateKey returns a canonical fingerprint of the crash image base+subset
// materializes: the exact byte runs where that image differs from base,
// encoded as (offset, length, bytes) records. Two subsets produce identical
// crash images if and only if their keys are equal. With an injector each
// write lands cut to its torn prefix, so the key is the faulted image's
// recipe (the injector tears by trace seq alone, never by state); that pass
// counts its tears, not its merged spans. The returned slice aliases
// ck.keyBuf, valid until the next call — callers that keep a key arena-save
// it first. Owner-only (it reuses ck.scratch).
func (ck *checker) stateKey(base []byte, log *trace.Log, subset []int, inj *pmem.Injector) []byte {
	// Materialize the written ranges into the scratch buffer, in program
	// order (ascending log index — the same last-writer-wins order replay
	// uses), and collect their intervals. Every byte of every merged span
	// is covered by some write's extent — the spans ARE the union of those
	// extents — so the applies fully overwrite the scanned region and no
	// base pre-copy is needed: scratch bytes outside the spans are never
	// read.
	spans := ck.spans[:0]
	for _, idx := range subset {
		e := log.At(idx)
		n := len(e.Data)
		if inj != nil {
			if n = inj.TornPrefix(uint64(e.Seq), n); n < len(e.Data) {
				ck.obs.Inc(obs.CtrFaultsInjected)
			}
		}
		if n > 0 {
			copy(ck.scratch[e.Off:], e.Data[:n])
			spans = append(spans, span{e.Off, e.Off + int64(n)})
		}
	}
	raw := len(spans)
	merged := coalesceSpans(spans)
	ck.spans = merged
	if inj == nil {
		ck.spansCoalesced += int64(raw - len(merged))
	}

	// Emit the differing runs. Distinct merged spans are separated by at
	// least one unwritten (base-equal) byte, so runs never cross a span
	// boundary and this per-span scan emits exactly the records a
	// whole-image diff would.
	// The scans move a word at a time where all eight byte pairs agree
	// (wholly equal, or wholly differing — no zero byte in the XOR), falling
	// back to bytes at run edges, so run boundaries — and therefore keys —
	// are bit-identical to the byte-at-a-time scan.
	key := ck.keyBuf[:0]
	for _, s := range merged {
		i := s.lo
		for i < s.hi {
			for i+8 <= s.hi && binary.LittleEndian.Uint64(ck.scratch[i:]) == binary.LittleEndian.Uint64(base[i:]) {
				i += 8
			}
			for i < s.hi && ck.scratch[i] == base[i] {
				i++
			}
			if i >= s.hi {
				break
			}
			j := i + 1
			for j+8 <= s.hi && !hasZeroByte(binary.LittleEndian.Uint64(ck.scratch[j:])^binary.LittleEndian.Uint64(base[j:])) {
				j += 8
			}
			for j < s.hi && ck.scratch[j] != base[j] {
				j++
			}
			key = binary.BigEndian.AppendUint64(key, uint64(i))
			key = binary.BigEndian.AppendUint32(key, uint32(j-i))
			key = append(key, ck.scratch[i:j]...)
			i = j
		}
	}
	ck.keyBuf = key
	return key
}

// hasZeroByte reports whether any byte of x is zero (the classic SWAR
// zero-byte test), i.e. whether an 8-byte XOR window contains an equal pair.
func hasZeroByte(x uint64) bool {
	return (x-0x0101010101010101)&^x&0x8080808080808080 != 0
}

// coalesceSpans sorts spans by start and merges overlapping or touching
// intervals in place, returning the merged prefix. Touching spans merge
// (lo == hi), so distinct merged spans are always separated by at least one
// byte no write covers — the invariant stateKey's per-span diff scan relies
// on.
func coalesceSpans(spans []span) []span {
	if len(spans) < 2 {
		return spans
	}
	slices.SortFunc(spans, func(a, b span) int {
		switch {
		case a.lo < b.lo:
			return -1
		case a.lo > b.lo:
			return 1
		default:
			return 0
		}
	})
	merged := spans[:0]
	for _, s := range spans {
		if len(merged) > 0 && s.lo <= merged[len(merged)-1].hi {
			if s.hi > merged[len(merged)-1].hi {
				merged[len(merged)-1].hi = s.hi
			}
			continue
		}
		merged = append(merged, s)
	}
	return merged
}

// resetFenceScratch readies the per-fence scratch for reuse: normally the
// arenas rewind and the dedup map clears in place (zero allocations in
// steady state). If any guest phase was abandoned since the last fence,
// the arenas are dropped instead — its goroutine may still be reading last
// fence's subset/key saves, and reusing their memory would race with
// it. Abandonments are rare (deterministic hangs, run
// cancellation), so the steady state stays allocation-free.
func (ck *checker) resetFenceScratch() {
	if n := ck.abandoned.Load(); n != ck.abandonedSeen {
		ck.abandonedSeen = n
		ck.subArena.drop()
		ck.keyArena.drop()
		ck.seen = nil
		ck.distinct = nil
	} else {
		ck.subArena.reset()
		ck.keyArena.reset()
	}
	if ck.seen == nil {
		ck.seen = make(map[string]struct{}, 64)
	} else {
		clear(ck.seen)
	}
}

// applyFence lands a fence's in-flight writes on the working image, in
// program order, and syncs the observation table's hasher over them.
// Owner-only, between checks.
func (ck *checker) applyFence(pending []int) {
	c := &ck.cur
	for _, idx := range pending {
		trace.Apply(c.img, c.log.At(idx))
	}
	if ck.hasher == nil {
		return
	}
	for _, idx := range pending {
		e := c.log.At(idx)
		ck.hasher.sync(c.img, e.Off, e.Off+int64(len(e.Data)))
	}
}

// fenceCtx builds the crash context for a fence inside syscall sys (or
// deferred work after lastDone).
func fenceCtx(sys, lastDone int) CheckContext {
	if sys < 0 {
		return CheckContext{Phase: PhasePost, Sys: lastDone, AckedOps: lastDone + 1}
	}
	return CheckContext{Phase: PhaseMid, Sys: sys, AckedOps: sys}
}

// combinations enumerates size-k subsets of pending[from:] recursively,
// passing each to emit in lexicographic order.
func combinations(pending, subset []int, from, size int, emit func([]int)) {
	if size == 0 {
		emit(subset)
		return
	}
	for i := from; i <= len(pending)-size; i++ {
		combinations(pending, append(subset, pending[i]), i+1, size-1, emit)
	}
}

func (ck *checker) noteInFlight(n int) {
	for len(ck.res.InFlightCounts) <= n {
		ck.res.InFlightCounts = append(ck.res.InFlightCounts, 0)
	}
	ck.res.InFlightCounts[n]++
	if n > ck.res.MaxInFlight {
		ck.res.MaxInFlight = n
	}
}

// sizeBucket maps a write size to a coarse bucket for trace signatures.
func sizeBucket(n int) byte {
	switch {
	case n == 0:
		return 0
	case n <= 8:
		return 1
	case n <= 64:
		return 2
	case n <= 512:
		return 3
	case n <= 4096:
		return 4
	default:
		return 5
	}
}
