package core

import (
	"context"
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"chipmunk/internal/obs"
	"chipmunk/internal/trace"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

// crashCtx says which crash point a state belongs to.
type crashCtx struct {
	phase     Phase
	sys       int   // syscall index (-1 outside any call)
	oracleIdx int   // index into checker.states used for comparison
	subset    []int // replayed in-flight write indices (nil = all fenced)
	fence     int   // 1-based fence ordinal (0 = post-syscall, no fence)
	rank      int   // canonical rank among this crash point's distinct states
}

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
	// obs is the run's private metrics collector and journal the shared
	// event stream; both are nil-safe no-ops when observability is off.
	// obs is recorded into by the supervisor and the runner alike (atomics
	// only); journal events are emitted by the owner exclusively, in walk
	// order.
	obs     *obs.Collector
	journal *obs.Journal

	// tracer emits deterministic "span" events (owner-only, like the
	// journal); checkSpan is the precomputed ID of the run's "check" span,
	// the parent every fence span hangs off.
	tracer    *obs.Tracer
	checkSpan string

	// Supervision (sandbox.go): the current runner's slot, the runner line's
	// exit channel, the supervision clock's epoch, the context's Done channel,
	// and the resolved sandbox configuration.
	slot    *slot
	exit    chan runnerExit
	epoch   time.Time
	doneC   <-chan struct{}
	direct  bool
	timeout time.Duration
	retries int

	// cur is the walk's position.
	cur cursor

	// scratch is the owner-only buffer state-key computation materializes
	// written ranges into.
	scratch []byte
	keyBuf  []byte
	spans   []span

	// Per-fence scratch reused across fences (owner-only, see arena.go for
	// the ownership protocol): the dedup map, the distinct state list, the
	// subset recursion buffer, and the arenas behind every crash state's
	// subset/spans/key.
	seen      map[string]struct{}
	distinct  []crashState
	subsetBuf []int
	subArena  sliceArena[int]
	spanArena sliceArena[span]
	keyArena  sliceArena[byte]

	// abandoned counts guest phases the supervisor walked away from
	// (timeout/cancel); abandonedSeen is the owner's high-water mark. When
	// they differ at a fence boundary the arenas are dropped instead of
	// reset — an abandoned guest may still be reading last fence's saves.
	// Incremented by the supervisor, read by the owner.
	abandoned     atomic.Int64
	abandonedSeen int64

	// runID is this run's process-unique pool token (see arena.go);
	// devSize the device size every pooled grab is keyed by; imgPool the
	// resolved cross-run image pool (nil under DisableBufferReuse — every
	// grab is then a fresh allocation).
	runID   int64
	devSize int
	imgPool *sync.Pool

	// prep is the contract's optional per-crash-point hook (nil when the
	// contract has none or Config.DisableOracleSnapshot is set): the owner
	// calls it once per fence before checking that fence's states, so they
	// share one immutable snapshot instead of each rebuilding the
	// oracle-visible view.
	prep CrashPointPreparer

	// spansCoalesced counts raw write spans merged away during dedup
	// keying (owner-only; mapped to obs.CtrSpansCoalesced at run end).
	spansCoalesced int64

	// baseGen is the generation of the walk's working image: the
	// walk accumulates fence-applied writes into advAccum (baseDirty set)
	// and commitBase folds them into one generation step — advance becomes
	// the accumulated write set (valid when advGen == baseGen), baseGen
	// bumps once — immediately before the next crash point's checks. Committing
	// lazily means back-to-back fences with no check in between cost ONE
	// generation, so a pooled image is never more than one generation
	// behind and catches up by replaying advance instead of re-copying the
	// device; see prime. Written by the owner only, between checks.
	baseGen   int64
	advance   []int
	advGen    int64
	advAccum  []int
	baseDirty bool
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
// in-flight subset, the merged byte spans its writes cover — the exact
// spans stateKey computed during dedup, reused by the delta materializer as
// the replay recipe (apply) and the restore recipe (revert) — and the
// byte-diff dedup key itself. The key's (offset, length, bytes) runs are the
// state's minimal diff against the fence base: when faults are off the
// materializer applies and reverts exactly those runs, one copy per merged
// run, and the quarantine digest hashes the key instead of re-deriving the
// diff. All three slices are arena-backed and valid until the fence after
// next begins (see arena.go). The zero value is a post-syscall state: empty
// subset, no key, the base image itself.
type crashState struct {
	subset []int
	spans  []span
	key    string
	keyed  bool
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
	img      []byte // the working image: baseline, advanced in place
	log      *trace.Log
	idx      int
	stage    walkStage
	pending  []int
	lastDone int
	sig      uint64 // FNV-64a state of the enclosing call's trace-shape signature

	// The fence being checked (stageFence): its crash context, the next rank
	// to check, and what the closing journal event and span report.
	cctx       crashCtx
	rank       int
	inFlight   int
	deduped    int
	fenceStart time.Time
	spanStart  time.Time
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
			ck.enter(e)
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
		// Advancing the persistent base past the fence is replay work.
		// The applied writes accumulate as the pending advance recipe;
		// commitBase folds them into one generation step right before
		// the next check. A fence with nothing in flight changes no bytes
		// and costs nothing.
		if e.Kind == trace.KindFence && len(c.pending) > 0 {
			at := ck.obs.Start()
			for _, idx := range c.pending {
				trace.Apply(c.img, c.log.At(idx))
			}
			ck.advAccum = append(ck.advAccum, c.pending...)
			ck.baseDirty = true
			ck.obs.ObserveSince(obs.StageReplay, at)
			c.pending = c.pending[:0]
		}
	}
	return nil
}

// enter does an entry's engine-side work — signature, statistics, and at a
// crash point the enumeration of its states — and leaves cur.stage saying
// whether guest checks are due.
func (ck *checker) enter(e trace.Entry) {
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
			ck.enumerate(e.Sys)
		}
	case trace.KindSyscallEnd:
		ck.res.SyscallSigs = append(ck.res.SyscallSigs, c.sig)
		c.lastDone = e.Sys
		if ck.shouldCheckPost(e.Sys) {
			ck.commitBase()
			c.stage = stagePost
		}
	}
}

// checkPoint runs the guest checks entry cur.idx still owes: the rest of
// its fence, or its post-syscall state.
func (ck *checker) checkPoint(sl *slot, sys int) error {
	c := &ck.cur
	if c.stage == stageFence {
		if err := ck.runChecks(sl); err != nil {
			return err
		}
		ck.journal.Emit(obs.Event{
			Type: "fence", FS: ck.caps.Name, Workload: ck.w.Name,
			Fence: c.cctx.fence, Sys: sys, Phase: c.cctx.phase.String(),
			InFlight: c.inFlight, States: len(ck.distinct), Deduped: c.deduped,
			DurNanos: sinceNanos(c.fenceStart),
		})
		ck.tracer.Span("fence", c.spanStart, ck.checkSpan, obs.Event{
			FS: ck.caps.Name, Workload: ck.w.Name,
			Fence: c.cctx.fence, Sys: sys, States: len(ck.distinct),
		})
		return nil
	}
	if err := ck.cancelled(); err != nil {
		return err
	}
	out, err := ck.checkOne(sl, c.img, c.log, crashState{}, crashCtx{phase: PhasePost, sys: sys, oracleIdx: sys + 1})
	if err != nil {
		return err
	}
	ck.fold(out)
	return nil
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
	ck.commitBase()
	full := pending
	if ck.cfg.VinterFilter {
		reads := ck.recoveryReadSet(img)
		kept := pending[:0:len(pending)]
		for _, idx := range pending {
			e := log.At(idx)
			if reads == nil || reads.Overlaps(e.Off, len(e.Data)) {
				kept = append(kept, idx)
			} else {
				ck.res.FilteredWrites++
			}
		}
		pending = kept
	}
	n := len(pending)
	cap := ck.cfg.Cap
	truncated := false
	if cap == 0 {
		limit := ck.cfg.ExhaustiveLimit
		if limit <= 0 {
			limit = DefaultExhaustiveLimit
		}
		fallback := ck.cfg.SafetyCap
		if fallback <= 0 {
			fallback = DefaultSafetyCap
		}
		if n > limit {
			cap = fallback
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
	ctx.fence = ck.res.Fences // enter increments before enumerating: 1-based

	c.fenceStart = time.Time{}
	if ck.journal != nil {
		c.fenceStart = time.Now()
	}
	c.spanStart = ck.tracer.Begin()
	dt := ck.obs.Start()

	// Stream candidate subsets in canonical rank order — size ascending,
	// lexicographic within a size, the full set last when not already the
	// final combination — deduplicating as they are generated: each
	// candidate's key is computed from the enumerator's shared recursion
	// buffer, and only the distinct ones are saved (together with their
	// merged write spans and diff key, which the delta materializer reuses
	// as the replay and restore recipes). Duplicates cost one key
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
		k := ck.stateKey(img, log, s)
		if _, dup := seen[internKey(k)]; dup {
			ck.res.StatesDeduped++
			dedupedHere++
			return
		}
		key := internKey(ck.keyArena.save(k))
		seen[key] = struct{}{}
		distinct = append(distinct, crashState{
			subset: ck.subArena.save(s),
			spans:  ck.spanArena.save(ck.spans),
			key:    key,
			keyed:  true,
		})
	}
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

	// One immutable oracle snapshot per crash point, shared by every state
	// checked at it (nil when the contract has none or the knob is off).
	if ck.prep != nil && len(distinct) > 0 {
		ck.prep.PrepareCrashPoint(ctx.check())
	}
	c.cctx, c.rank, c.inFlight, c.deduped = ctx, 0, n, dedupedHere
	c.stage = stageFence
}

// runChecks materializes and checks the fence's distinct subsets from
// cur.rank on. Outcomes — violations, quarantine entries, retry accounting —
// are folded in subset-rank order, and StatesChecked counts exactly the
// states whose check reached a classified outcome (clean, violating, or
// quarantined).
func (ck *checker) runChecks(sl *slot) error {
	c := &ck.cur
	for ; c.rank < len(ck.distinct); c.rank++ {
		if err := ck.cancelled(); err != nil {
			return err
		}
		cctx := c.cctx
		cctx.rank = c.rank
		out, err := ck.checkOne(sl, c.img, c.log, ck.distinct[c.rank], cctx)
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
// crash images if and only if their keys are equal. The returned slice
// aliases ck.keyBuf, valid until the next call — callers that keep a key
// arena-save it first. Owner-only (it reuses ck.scratch).
func (ck *checker) stateKey(base []byte, log *trace.Log, subset []int) []byte {
	// Collect and coalesce the written intervals once; the merged spans are
	// the materializer's replay recipe and the dedup scan's bounds.
	spans := ck.spans[:0]
	for _, idx := range subset {
		e := log.At(idx)
		if len(e.Data) == 0 {
			continue
		}
		spans = append(spans, span{e.Off, e.Off + int64(len(e.Data))})
	}
	raw := len(spans)
	merged := coalesceSpans(spans)
	ck.spans = merged
	ck.spansCoalesced += int64(raw - len(merged))

	// Materialize the written ranges into the scratch buffer, in program
	// order (ascending log index — the same last-writer-wins order replay
	// uses). Every byte of every merged span is covered by some write's
	// extent — the spans ARE the union of those extents — so the applies
	// fully overwrite the scanned region and no base pre-copy is needed:
	// scratch bytes outside the spans are never read.
	for _, idx := range subset {
		trace.Apply(ck.scratch, log.At(idx))
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
// byte no write covers — the invariant stateKey's per-span diff scan and the
// coalesced apply/revert paths rely on.
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
// fence's subset/spans/key saves, and reusing their memory would race with
// it. Abandonments are rare (deterministic hangs, run
// cancellation), so the steady state stays allocation-free.
func (ck *checker) resetFenceScratch() {
	if n := ck.abandoned.Load(); n != ck.abandonedSeen {
		ck.abandonedSeen = n
		ck.subArena.drop()
		ck.spanArena.drop()
		ck.keyArena.drop()
		ck.seen = nil
		ck.distinct = nil
	} else {
		ck.subArena.reset()
		ck.spanArena.reset()
		ck.keyArena.reset()
	}
	if ck.seen == nil {
		ck.seen = make(map[string]struct{}, 64)
	} else {
		clear(ck.seen)
	}
}

// commitBase folds the writes fences applied since the last check into one
// generation step: advance becomes the accumulated recipe and baseGen bumps
// once. Owner-only, called immediately before a crash point's checks — so
// the runner's image, primed at the previous one, is exactly one
// generation (one advance replay) behind, never more.
func (ck *checker) commitBase() {
	if !ck.baseDirty {
		return
	}
	ck.advance, ck.advAccum = ck.advAccum, ck.advance[:0]
	ck.baseGen++
	ck.advGen = ck.baseGen
	ck.baseDirty = false
}

// fenceCtx builds the crash context for a fence inside syscall sys (or
// deferred work after lastDone).
func fenceCtx(sys, lastDone int) crashCtx {
	if sys < 0 {
		return crashCtx{phase: PhasePost, sys: lastDone, oracleIdx: lastDone + 1}
	}
	return crashCtx{phase: PhaseMid, sys: sys, oracleIdx: sys}
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
