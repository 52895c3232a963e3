package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"chipmunk/internal/obs"
	"chipmunk/internal/pmem"
	"chipmunk/internal/trace"
)

// This file is the check sandbox: the in-process analogue of the paper's VM
// farm (§4.2). The paper mounts every crash state inside a disposable VM
// precisely because a corrupted state can take the guest kernel down with
// it; here the check loop of one engine run executes on a supervised runner
// goroutine, so a hostile state costs one classified report instead of the
// whole census — and a healthy one costs no hand-off at all.
//
// One set of roles per engine run:
//   - The supervisor is the goroutine that called RunContext. It walks the
//     trace itself until the first guest check is due (a run with no crash
//     state never starts a goroutine), then starts the runner and blocks in
//     one select on {runner finished, one timer, ctx.Done()}.
//   - The runner executes walk → enumerate → checks inline. Around each
//     guest phase (mount, contract check, undo rollback) it arms its slot —
//     one atomic store of deadline|leaseRunning — runs the guest under a
//     deferred recover, and settles with one CAS. Panic, media-error, retry
//     and quarantine handling all happen inline on the runner.
//   - The slot is what the two share: the lease word, the runner's run-long
//     pooled image, the current state's retry progress.
//   - The cursor (checker.cur) is the walk's position, kept off the
//     goroutine stack so it outlives a runner.
//
// Takeover. The timer never fires on a clean run. When it does, the
// supervisor abandons the slot if its armed deadline has passed — CAS
// running → abandoned — and otherwise re-arms to the deadline still pending.
// The CAS can only be won during a guest phase, when the runner touches
// nothing but its image and crash context, so winning it transfers ownership
// of the checker: the supervisor retires the image, records the timed-out
// attempt in a fresh slot and starts a fresh runner that resumes at the
// cursor — backoff and retry, or quarantine and the next state. No earlier
// check is re-run, no journal event or span emitted twice. A guest that
// returns late finds its CAS lost and unwinds touching nothing; one that
// never returns is leaked with its retired image (Go cannot kill a
// goroutine) — the price of a census that always terminates, the same trade
// the paper makes when it shoots a wedged VM. Cancellation abandons a
// running guest phase the same way and returns ctx.Err(); a runner between
// guest phases notices by itself. Engine panics outside the guard
// (enumeration, PrepareCrashPoint, fold) are caught at the runner's top
// frame and re-raised by the supervisor on RunContext's caller.
//
// Outcome taxonomy:
//   - success: the check's verdict (violation or clean) is used as-is;
//   - media error (*pmem.MediaError): an injected fault — classified as
//     VUnreadable, no retry (the poison is deterministic by construction);
//   - panic/timeout: retried with backoff up to Config.CheckRetries times;
//     a failure that survives every retry is deterministic — the state is
//     quarantined (Result.Quarantined) and classified VPanic/VTimeout.
//
// Crash-image materialization is O(diff), not O(device): a slot's image is
// primed with the fence's base once per generation, each crash state is
// materialized by applying only its subset's merged byte spans (the spans
// stateKey already computed during dedup), and after the check the image is
// restored — guest mount-time mutations via the device's undo log, the
// delta spans by re-copying them from the base. Config.DisableDeltaMaterialize
// selects the legacy two-full-copies-per-state path for differential tests.

// checkOutcome is what one checked crash state contributes to the result;
// the runner folds it, in canonical rank order, via fold.
type checkOutcome struct {
	v       *Violation
	q       *Quarantine
	retried bool     // succeeded only after a retry (transient failure)
	ctx     crashCtx // crash point identity, for journal attribution
}

// attemptResult is the raw outcome of one guarded attempt.
type attemptResult struct {
	ok        bool
	v         *Violation
	media     *pmem.MediaError
	panicked  bool
	panicVal  string
	stack     string
	timedOut  bool
	cancelled bool // the run was cancelled before the guest started
	// lost: the supervisor abandoned this guest phase while it ran. The
	// checker now belongs to someone else — the caller must unwind without
	// touching it (or its own slot, which the supervisor has read).
	lost bool
	// checkStart is the open check-stage window (see checkState), closed by
	// attempt after the image is restored. Zero when the attempt failed
	// before the check phase or observability is off.
	checkStart time.Time
	rolledBack int64 // guest-mutated bytes the undo log restored
}

// errNeedRunner stops the supervisor's inline walk at the first guest check;
// errLost unwinds a runner whose guest phase was abandoned.
var (
	errNeedRunner = errors.New("core: guest check due, runner not started")
	errLost       = errors.New("core: runner abandoned")
)

// fold applies one outcome to the result.
func (ck *checker) fold(out checkOutcome) {
	ck.res.StatesChecked++
	if out.retried {
		ck.res.RetriedChecks++
		ck.journal.Emit(obs.Event{
			Type: "retry", FS: ck.caps.Name, Workload: ck.w.Name,
			Fence: out.ctx.fence, Sys: out.ctx.sys, Rank: out.ctx.rank,
			Phase: out.ctx.phase.String(),
		})
	}
	if out.q != nil {
		if len(ck.res.Quarantined) >= maxViolationsPerRun {
			ck.res.SuppressedQuarantine++
		} else {
			ck.res.Quarantined = append(ck.res.Quarantined, *out.q)
		}
		ck.journal.Emit(obs.Event{
			Type: "quarantine", FS: ck.caps.Name, Workload: ck.w.Name,
			Fence: out.q.Fence, Sys: out.q.Sys, Rank: out.q.Rank,
			Phase: out.q.Phase.String(), Kind: out.q.Kind.String(),
			StateKey: fmt.Sprintf("%016x", out.q.StateKey),
			Detail:   out.q.Detail,
		})
	}
	if out.v != nil {
		ck.reportViolation(*out.v)
		ck.journal.Emit(obs.Event{
			Type: "violation", FS: ck.caps.Name, Workload: ck.w.Name,
			Fence: out.ctx.fence, Sys: out.ctx.sys, Rank: out.ctx.rank,
			Phase: out.v.Phase.String(), Kind: out.v.Kind.String(),
			Detail: firstLine(out.v.Detail),
			Prefix: ck.tracePrefix(out.ctx.sys),
		})
	}
}

// Lease states: the ownership protocol between a runner and the supervisor,
// held in the low two bits of slot.lease. The runner arms running before a
// guest phase and settles running → clean (guest returned, its mutations
// rolled back) or running → poisoned (panic or media error left the check
// half-done); the supervisor transitions running → abandoned when the armed
// deadline passes or the run is cancelled. Exactly one side wins the CAS,
// and with it ownership of the image and the checker: a clean image stays in
// its slot, everything else is retired — an abandoned guest may still be
// scribbling on its buffers, and a poisoned image can no longer be trusted
// to equal base-plus-delta.
const (
	leaseRunning int64 = iota
	leaseClean
	leasePoisoned
	leaseAbandoned
	leaseBits = 2
)

// tryState is one crash state's retry progress. It lives in the slot, not on
// the runner's stack, so a takeover can carry it to the replacement runner.
type tryState struct {
	attempts int
	last     attemptResult
}

// slot is one runner's half of the supervision protocol. Everything but the
// lease word is written by the runner only while the lease is not running,
// and read by the supervisor only after it won the abandoning CAS — the CAS
// is the hand-over.
type slot struct {
	// lease is deadline<<leaseBits | state: the armed deadline (nanoseconds
	// since checker.epoch; unused without a timer) rides in the same word as
	// the state, so the supervisor's CAS can only abandon the exact guest
	// phase whose deadline it examined — never one armed in between.
	lease atomic.Int64
	// wi is the slot's pooled image, grabbed at the runner's first state and
	// kept for the life of the run (nil after a retire until the next state).
	wi  *workerImage
	try tryState
}

func newSlot(try tryState) *slot {
	sl := &slot{try: try}
	sl.lease.Store(leaseClean)
	return sl
}

func (sl *slot) abandoned() bool { return sl.lease.Load() == leaseAbandoned }

// runnerExit is the one message a run's runner line sends: the walk's
// error, or the engine panic its top frame caught (never nil: a panic(nil)
// reaches recover as a *runtime.PanicNilError).
type runnerExit struct {
	err      error
	panicVal any
	at       time.Time // when the hand-back began (zero: observability off)
}

// supervise drives the check phase of one engine run: the trace walk, the
// runner that executes it once a guest check is due, and the clean-ups that
// must outlive any runner. It takes ownership of baseline and advances it in
// place as the working image — the caller hands over a private copy.
func (ck *checker) supervise(baseline []byte, log *trace.Log) error {
	// Key scratch is a crash-state construction cost: bill it to the replay
	// stage so the -stats sum tracks wall-clock.
	wt := ck.obs.Start()
	fresh := ck.cfg.DisableBufferReuse
	ck.devSize = len(baseline)
	ck.direct = ck.cfg.DisableSandbox && !ck.cfg.Faults.Enabled()
	if ck.timeout = ck.cfg.CheckTimeout; ck.timeout == 0 {
		ck.timeout = DefaultCheckTimeout
	}
	if ck.retries = ck.cfg.CheckRetries; ck.retries == 0 {
		ck.retries = DefaultCheckRetries
	} else if ck.retries < 0 {
		ck.retries = 0
	}
	if ck.ctx != nil {
		ck.doneC = ck.ctx.Done()
	}
	var scr *fenceScratch
	if !fresh {
		ck.imgPool = poolFor(&imagePools, ck.devSize)
		scr = ck.loanScratch()
	}
	ck.scratch = grabBuf(ck.devSize, fresh)
	// A runner can be abandoned mid-walk, so the walk's clean-ups run here,
	// once, after the last runner the supervisor waits for: images no guest
	// can still be holding go back to the pool, and the fence scratch is
	// recycled unless an abandoned guest may still be reading it.
	defer func() {
		if sl := ck.slot; sl != nil && sl.wi != nil && !sl.abandoned() {
			ck.putImage(sl.wi)
		}
		if scr != nil {
			ck.returnScratch(scr)
		}
		putBuf(ck.scratch, fresh)
		ck.scratch = nil
	}()
	ck.cur = cursor{img: baseline, log: log, lastDone: -1, sig: fnvOffset64}
	// No advance recipe exists yet: a fresh image (gen -1) at generation 0
	// must full-prime, not replay an empty recipe.
	ck.advGen = -1
	ck.obs.ObserveSince(obs.StageReplay, wt)

	if ck.direct {
		ck.slot = newSlot(tryState{})
		return ck.walk(ck.slot)
	}
	// Walk inline until the first guest check is due; most short runs on
	// weak systems end here without ever starting a goroutine.
	if err := ck.walk(nil); err != errNeedRunner {
		return err
	}
	ck.exit = make(chan runnerExit, 1)
	var timer *time.Timer
	var timerC <-chan time.Time
	ck.epoch = time.Now()
	if ck.timeout > 0 {
		timer = time.NewTimer(ck.timeout)
		defer timer.Stop()
		timerC = timer.C
	}
	cancelC := ck.doneC
	ck.startRunner(tryState{})
	for {
		select {
		case ex := <-ck.exit:
			if ex.panicVal != nil {
				panic(ex.panicVal)
			}
			ck.obs.ObserveSince(obs.StageCheck, ex.at)
			return ex.err
		case <-timerC:
		case <-cancelC:
			cancelC = nil
		}
		// The timer fired or the run was cancelled: abandon the guest phase if
		// it is past its deadline (cancelled: if it is running at all). A
		// runner between guest phases re-checks the context right after
		// arming, so once a cancel scan is through no new guest phase starts.
		cancelErr := ck.cancelled()
		now := ck.now()
		next := now + int64(ck.timeout)
		sl := ck.slot
		w := sl.lease.Load()
		switch dl := w >> leaseBits; {
		case w&(1<<leaseBits-1) != leaseRunning:
		case cancelErr == nil && dl > now:
			next = dl
		case sl.lease.CompareAndSwap(w, leaseAbandoned):
			// (A lost CAS means the phase settled in the race window: the
			// runner kept it.)
			if sl.wi != nil { // the full-copy path holds no pooled image
				ck.obs.Inc(obs.CtrImagesRetired)
			}
			ck.abandoned.Add(1)
			if cancelErr != nil {
				return cancelErr
			}
			try := sl.try
			try.attempts++
			try.last = attemptResult{timedOut: true}
			ck.startRunner(try)
		}
		if timer != nil {
			timer.Reset(time.Duration(next - now))
		}
	}
}

// now is the supervision clock: nanoseconds since the run's epoch.
func (ck *checker) now() int64 { return int64(time.Since(ck.epoch)) }

// startRunner starts a runner on a fresh slot — the run's first, or the
// replacement after a takeover, which resumes the abandoned state from try.
// Supervisor-only.
func (ck *checker) startRunner(try tryState) {
	sl := newSlot(try)
	if !ck.cfg.DisableDeltaMaterialize {
		// The runner's image is taken out and put back by the same
		// long-lived goroutine: the pool is per-P, and a fresh runner
		// goroutine per run would keep finding it on the wrong one. It is
		// primed here too (the runner's own prime is then a no-op): this
		// goroutine just built the base, so the device copy is cache-warm,
		// and a one-state run's runner lives no longer than its guest phase
		// — short enough that the M its start woke is still spinning when
		// it finishes, which saves the second futex wake-up.
		rt := ck.obs.Start()
		sl.wi = ck.grabImage()
		ck.prime(sl.wi, ck.cur.img, ck.cur.log)
		ck.obs.ObserveSince(obs.StageReplay, rt)
	}
	ck.slot = sl
	ck.obs.Inc(obs.CtrSandboxRunners)
	// The two hand-offs of a run bill where the per-state ones used to, so
	// the stage windows keep tiling wall-clock: the runner's start to mount,
	// its hand-back (closed by the supervisor) to check.
	st := ck.obs.Start()
	go func() {
		ck.obs.ObserveSince(obs.StageMount, st)
		defer func() {
			// An engine panic outside the guard must surface on RunContext's
			// caller, not kill the process from an unsupervised goroutine.
			if r := recover(); r != nil && !sl.abandoned() {
				ck.exit <- runnerExit{panicVal: r}
			}
		}()
		if err := ck.walk(sl); err != errLost {
			ck.exit <- runnerExit{err: err, at: ck.obs.Start()}
		}
	}()
}

// checkOne checks one crash state (base image + replayed subset) end to end
// on the calling runner: guarded attempt, bounded retry with backoff,
// quarantine on deterministic failure. The retry progress lives in sl.try, so
// a replacement runner entering with attempts already recorded resumes at
// the classification of the last one.
func (ck *checker) checkOne(sl *slot, img []byte, log *trace.Log, st crashState, cctx crashCtx) (checkOutcome, error) {
	cctx.subset = st.subset
	if ck.direct {
		return checkOutcome{v: ck.attempt(sl, img, log, st, cctx).v, ctx: cctx}, nil
	}
	try := &sl.try
	for resumed := try.attempts > 0; ; resumed = false {
		if !resumed {
			r := ck.attempt(sl, img, log, st, cctx)
			switch {
			case r.lost:
				return checkOutcome{}, errLost
			case r.cancelled:
				return checkOutcome{}, ck.cancelled()
			}
			try.last = r
			try.attempts++
		}
		last, attempts := try.last, try.attempts
		switch {
		case last.ok:
			*try = tryState{}
			return checkOutcome{v: last.v, retried: attempts > 1, ctx: cctx}, nil
		case last.media != nil:
			// An injected media fault is deterministic by construction:
			// classify immediately, no retry, no quarantine — it is a
			// modeled crash outcome, not a checker failure.
			*try = tryState{}
			ck.obs.Inc(obs.CtrFaultsInjected)
			return checkOutcome{v: ck.violation(cctx, VUnreadable,
				fmt.Sprintf("reading recovered state failed: %v", last.media)), ctx: cctx}, nil
		}
		if attempts > ck.retries {
			break
		}
		// Backoff 1ms, x4 per retry; a cancelled run does not sit it out.
		if err := ck.sleep(time.Millisecond << (2 * (attempts - 1))); err != nil {
			return checkOutcome{}, err
		}
	}

	// Deterministic panic or hang: quarantine the state and classify it.
	last, attempts := try.last, try.attempts
	*try = tryState{}
	kind, detail := VPanic, "check panicked: "+firstLine(last.panicVal)
	if last.timedOut {
		kind, detail = VTimeout, fmt.Sprintf("check exceeded %v deadline", ck.timeout)
	}
	q := &Quarantine{
		Workload: ck.w.Name,
		Fence:    cctx.fence,
		Sys:      cctx.sys,
		Phase:    cctx.phase,
		Rank:     cctx.rank,
		Subset:   append([]int(nil), st.subset...),
		StateKey: stateDigest(img, log, st),
		Kind:     kind,
		Detail:   detail,
		Stack:    last.stack,
		Attempts: attempts,
	}
	return checkOutcome{v: ck.violation(cctx, kind, detail), q: q, ctx: cctx}, nil
}

// sleep waits out a retry backoff, or returns the context's error as soon as
// the run is cancelled.
func (ck *checker) sleep(d time.Duration) error {
	select {
	case <-ck.doneC:
		return ck.ctx.Err()
	case <-time.After(d):
		return nil
	}
}

// workerImage is one pooled crash image with its reusable device and undo
// log. Invariant between checks: the image holds exactly the contents of run
// `run`'s working image at generation gen (-1 = never primed). prime
// re-establishes the invariant for the current run and generation, applyDelta
// perturbs it for one crash state, and revert restores it — so a state
// whose base is already primed costs only its own diff, never a device copy.
// Images recycle across engine runs through the process-wide pool
// (arena.go); the run token is what keeps a stale image's generations from
// aliasing a new run's.
type workerImage struct {
	dev *pmem.Device
	// img is the single buffer serving as BOTH the volatile and persistent
	// image: a just-rebooted device starts with the two identical, and a
	// crash-state check never examines durability again, so the unified
	// device (pmem.WrapImage) keeps them fused — halving prime, delta, and
	// rollback traffic relative to a two-image pair.
	img  []byte
	undo *pmem.UndoLog
	run  int64
	gen  int64
}

func newWorkerImage(size int) *workerImage {
	wi := &workerImage{
		img:  make([]byte, size),
		undo: pmem.NewUndoLog(nil),
		gen:  -1,
	}
	wi.dev = pmem.WrapImage(wi.img)
	wi.dev.TrackUndo(wi.undo)
	return wi
}

// attempt runs one check attempt on the calling runner: prime the slot's
// image with the fence's base if its generation is stale, apply the crash
// state's delta (subset writes and injected faults), then mount and check
// under the guard. On a clean finish the delta is reverted and the image
// stays in the slot; a poisoned image is retired.
//
// Replay runs OUTSIDE the guard on purpose: only while the lease is running
// may the supervisor take the checker away, and the argument that makes that
// safe is that a guest phase touches nothing but its image. Replay reads the
// working image and the log, which the replacement runner keeps advancing.
// It is trusted engine code (no guest involvement), so only the guest-facing
// mount/check phase needs containment; media-error panics are raised at read
// time, inside that phase.
func (ck *checker) attempt(sl *slot, img []byte, log *trace.Log, st crashState, cctx crashCtx) attemptResult {
	if ck.cfg.DisableDeltaMaterialize {
		return ck.attemptFullCopy(sl, img, log, st.subset, cctx)
	}
	rt := ck.obs.Start()
	wi := sl.wi
	if wi == nil {
		wi = ck.grabImage()
		sl.wi = wi
	}
	inj := ck.injector(cctx)
	// With faults off the state's diff key is its exact materialization
	// recipe: apply (and later revert) each coalesced run once. Fault
	// injection tears individual stores, so it must go through the
	// per-store path — a torn prefix can differ from the diff runs.
	coal := st.keyed && inj == nil && !ck.cfg.DisableCoalescedApply
	ck.prime(wi, img, log)
	flipOff, flipped := ck.applyDelta(wi, log, st, inj, coal)
	ck.obs.ObserveSince(obs.StageReplay, rt)
	wi.dev.Reset()
	wi.dev.InjectFaults(inj)

	r := ck.guard(sl, wi.dev, wi.undo, cctx, ck.obs.Start())
	switch {
	case r.lost:
		return r
	case r.ok || r.cancelled:
		// The guest's mutations are already rolled back; exactly the delta
		// this attempt applied remains.
		ck.obs.Add(obs.CtrBytesRolledBack, r.rolledBack)
		ck.revert(wi, img, st, coal, flipOff, flipped)
	default:
		sl.wi = nil
		ck.obs.Inc(obs.CtrImagesRetired)
	}
	if r.ok {
		ck.obs.ObserveSince(obs.StageCheck, r.checkStart)
	}
	return r
}

// guard is the one guarded-check body: it runs a guest phase — mount, the
// run's contract, the undo rollback — on the calling runner under the slot's
// lease. Arm, then settle: whoever wins the CAS on the armed word owns the
// image and the checker afterwards. mt is the already-open mount window.
// Config.DisableSandbox (ck.direct) runs the same phase with the guard
// skipped: no lease, no recover.
func (ck *checker) guard(sl *slot, dev *pmem.Device, undo *pmem.UndoLog, cctx crashCtx, mt time.Time) (res attemptResult) {
	if ck.direct {
		v, ct := ck.checkState(dev, cctx, mt)
		return attemptResult{ok: true, v: v, checkStart: ct, rolledBack: rollback(undo)}
	}
	armed := leaseRunning
	if ck.timeout > 0 {
		armed |= (ck.now() + int64(ck.timeout)) << leaseBits
	}
	sl.lease.Store(armed)
	// Re-check cancellation after arming: the supervisor's cancel scan either
	// saw this lease running (and abandons it) or ran before the store, in
	// which case the context was already done and this check sees it.
	if ck.cancelled() != nil {
		if sl.lease.CompareAndSwap(armed, leaseClean) {
			return attemptResult{cancelled: true}
		}
		return attemptResult{lost: true}
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if !sl.lease.CompareAndSwap(armed, leasePoisoned) {
			// Abandoned mid-check: the supervisor already retired the image.
			res = attemptResult{lost: true}
			return
		}
		if me, ok := r.(*pmem.MediaError); ok {
			res = attemptResult{media: me}
			return
		}
		res = attemptResult{panicked: true, panicVal: fmt.Sprint(r), stack: string(debug.Stack())}
	}()

	v, ct := ck.checkState(dev, cctx, mt)
	// Undo the guest's mount-time mutations while still holding the lease,
	// THEN settle: the caller reverts only the delta spans. If abandonment
	// won the CAS the rollback was wasted work on a retired buffer — harmless.
	rolledBack := rollback(undo)
	if !sl.lease.CompareAndSwap(armed, leaseClean) {
		return attemptResult{lost: true}
	}
	return attemptResult{ok: true, v: v, checkStart: ct, rolledBack: rolledBack}
}

// rollback undoes the guest's mutations (the full-copy path has no undo log:
// its buffers are rebuilt from scratch for every attempt).
func rollback(undo *pmem.UndoLog) int64 {
	if undo == nil {
		return 0
	}
	return undo.Rollback()
}

// prime establishes the image invariant for the current run and
// generation: a current image is untouched (zero copies — the empty-subset
// fast path), an image exactly one generation behind catches up by replaying
// the last fence's advance recipe (O(advance bytes)), and anything older —
// fresh from the pool or left over from a previous run — is re-primed by
// full device copy, the only O(device) operation left on the check path. The
// run-token check comes first: a recycled image's generation numbers are
// meaningless outside the run that stamped them.
func (ck *checker) prime(wi *workerImage, base []byte, log *trace.Log) {
	if wi.run == ck.runID {
		if wi.gen == ck.baseGen {
			return
		}
		if wi.gen == ck.baseGen-1 && ck.advGen == ck.baseGen {
			var n int64
			for _, idx := range ck.advance {
				e := log.At(idx)
				trace.Apply(wi.img, e)
				n += int64(len(e.Data))
			}
			wi.gen = ck.baseGen
			ck.obs.Add(obs.CtrBytesPrimed, n)
			return
		}
	}
	copy(wi.img, base)
	wi.run = ck.runID
	wi.gen = ck.baseGen
	ck.obs.Inc(obs.CtrImagePrimes)
	ck.obs.Add(obs.CtrBytesPrimed, int64(len(base)))
}

// applyDelta perturbs a primed image into one crash state. On the coalesced
// path (faults off) the state's byte-diff key is the recipe: each merged
// (offset, length, bytes) run lands on the unified image exactly once —
// overlapping stores were already resolved, last-writer-wins, when the key
// was computed. Otherwise the subset's writes land per store in program
// order (torn to a word-aligned prefix when the injector says so), then the
// injected bit flip. The just-rebooted volatile == persistent invariant the
// legacy path establishes by copying is structural here: the unified device
// serves both images from wi.img. Cost is O(diff bytes) coalesced,
// O(subset bytes) otherwise; both independent of device size.
func (ck *checker) applyDelta(wi *workerImage, log *trace.Log, st crashState, inj *pmem.Injector, coal bool) (flipOff int64, flipped bool) {
	if coal {
		var n int64
		forEachKeyRun(st.key, func(off int64, data string) {
			copy(wi.img[off:off+int64(len(data))], data)
			n += int64(len(data))
		})
		ck.obs.Add(obs.CtrBytesMaterialized, n)
		return 0, false
	}
	var n int64
	for _, idx := range st.subset {
		e := log.At(idx)
		if !e.IsWrite() {
			continue
		}
		tn := inj.TornPrefix(uint64(e.Seq), len(e.Data))
		if tn < len(e.Data) {
			ck.obs.Inc(obs.CtrFaultsInjected)
		}
		copy(wi.img[e.Off:e.Off+int64(tn)], e.Data[:tn])
		n += int64(tn)
	}
	if inj != nil {
		if flipOff, _, flipped = inj.FlipBit(wi.img); flipped {
			ck.obs.Inc(obs.CtrFaultsInjected)
			n++
		}
	}
	ck.obs.Add(obs.CtrBytesMaterialized, n)
	return flipOff, flipped
}

// revert restores a cleanly-finished image to the fence's base. The guard
// already rolled back the guest's mutations, so exactly the delta this
// attempt applied remains. On the coalesced path only the key's diff runs
// were written, so only those bytes are re-copied from the base — the
// minimal restore. Otherwise the subset's merged spans are re-copied (the
// spans over-approximate the diff) plus the flipped byte, which may land
// outside every span; when it lands inside, the span copy has already
// restored it and the second write is a same-value no-op. Either way the
// image invariant (contents == base at wi.gen) holds afterward.
func (ck *checker) revert(wi *workerImage, base []byte, st crashState, coal bool, flipOff int64, flipped bool) {
	var n int64
	if coal {
		forEachKeyRun(st.key, func(off int64, data string) {
			copy(wi.img[off:off+int64(len(data))], base[off:off+int64(len(data))])
			n += int64(len(data))
		})
	} else {
		for _, s := range st.spans {
			copy(wi.img[s.lo:s.hi], base[s.lo:s.hi])
			n += s.hi - s.lo
		}
		if flipped {
			wi.img[flipOff] = base[flipOff]
			n++
		}
	}
	ck.obs.Add(obs.CtrBytesRolledBack, n)
}

// forEachKeyRun decodes a byte-diff key's (offset, length, bytes) records.
// The callback's data string aliases the key — no copies.
func forEachKeyRun(key string, fn func(off int64, data string)) {
	for i := 0; i+12 <= len(key); {
		off := int64(beUint64(key[i:]))
		n := int(beUint32(key[i+8:]))
		i += 12
		fn(off, key[i:i+n])
		i += n
	}
}

// beUint64 and beUint32 read big-endian integers from a string without the
// []byte conversion binary.BigEndian would force (and its allocation).
func beUint64(s string) uint64 {
	_ = s[7]
	return uint64(s[0])<<56 | uint64(s[1])<<48 | uint64(s[2])<<40 | uint64(s[3])<<32 |
		uint64(s[4])<<24 | uint64(s[5])<<16 | uint64(s[6])<<8 | uint64(s[7])
}

func beUint32(s string) uint32 {
	_ = s[3]
	return uint32(s[0])<<24 | uint32(s[1])<<16 | uint32(s[2])<<8 | uint32(s[3])
}

// attemptFullCopy is the legacy materialization path
// (Config.DisableDeltaMaterialize): two full-device copies into pooled
// buffers per crash state, checked under the same guard. Kept so the
// differential tests can assert the delta path changes nothing.
func (ck *checker) attemptFullCopy(sl *slot, img []byte, log *trace.Log, subset []int, cctx crashCtx) attemptResult {
	rt := ck.obs.Start()
	fresh := ck.cfg.DisableBufferReuse
	persistent := grabBuf(ck.devSize, fresh)
	volatile := grabBuf(ck.devSize, fresh)
	inj := ck.injector(cctx)
	ck.materialize(persistent, img, log, subset, inj)
	if inj != nil {
		if _, _, flipped := inj.FlipBit(persistent); flipped {
			ck.obs.Inc(obs.CtrFaultsInjected)
		}
	}
	copy(volatile, persistent)
	ck.obs.ObserveSince(obs.StageReplay, rt)
	dev := pmem.WrapImages(volatile, persistent)
	dev.InjectFaults(inj)

	r := ck.guard(sl, dev, nil, cctx, ck.obs.Start())
	if r.lost {
		// Abandoned together with these buffers: the late guest may still be
		// writing them, so they are never recycled.
		return r
	}
	// Every attempt re-copies the buffers in full before use, so they are
	// safe to recycle even after a mid-check panic.
	putBuf(persistent, fresh)
	putBuf(volatile, fresh)
	if r.ok {
		ck.obs.ObserveSince(obs.StageCheck, r.checkStart)
	}
	return r
}

// materialize builds the crash image: base bytes plus the replayed subset,
// each write torn down to a word-aligned prefix when the injector says so.
func (ck *checker) materialize(persistent, img []byte, log *trace.Log, subset []int, inj *pmem.Injector) {
	copy(persistent, img)
	for _, idx := range subset {
		e := log.At(idx)
		if !e.IsWrite() {
			continue
		}
		n := inj.TornPrefix(uint64(e.Seq), len(e.Data))
		if n < len(e.Data) {
			ck.obs.Inc(obs.CtrFaultsInjected)
		}
		copy(persistent[e.Off:e.Off+int64(n)], e.Data[:n])
	}
}

// injector builds the per-state fault injector (nil when faults are off).
// The salt mixes the crash point's identity — fence ordinal, subset rank,
// syscall, phase — so every state faults independently yet identically on
// retry and on any runner.
func (ck *checker) injector(cctx crashCtx) *pmem.Injector {
	if !ck.cfg.Faults.Enabled() {
		return nil
	}
	salt := uint64(cctx.fence)*0x100000001b3 ^
		uint64(cctx.rank)*0x9e3779b97f4a7c15 ^
		uint64(cctx.sys+2)<<1 ^
		uint64(cctx.phase)
	return pmem.NewInjector(ck.cfg.Faults, salt)
}

// stateDigest fingerprints a crash state for the quarantine ledger: the
// FNV-64a digest of the byte-diff key (the (offset, length, bytes) runs
// where the materialized image differs from the fence's base image — the
// same identity stateKey deduplicates on). Keyed states hash their key
// directly — the key IS the record stream the legacy digest hashed, so the
// digests are identical without re-deriving the diff (which used to cost a
// full-image copy per quarantine). Post-syscall states, which ARE their base
// image, digest the whole image. The unkeyed-subset fallback re-derives the
// diff the slow way; it only runs for states built outside enumerate (tests).
func stateDigest(img []byte, log *trace.Log, st crashState) uint64 {
	if st.keyed {
		return fnv64a(st.key)
	}
	h := fnv.New64a()
	if len(st.subset) == 0 {
		h.Write(img)
		return h.Sum64()
	}
	scratch := append([]byte(nil), img...)
	for _, idx := range st.subset {
		trace.Apply(scratch, log.At(idx))
	}
	var rec [12]byte
	for i := 0; i < len(img); {
		if scratch[i] == img[i] {
			i++
			continue
		}
		j := i + 1
		for j < len(img) && scratch[j] != img[j] {
			j++
		}
		binary.BigEndian.PutUint64(rec[:8], uint64(i))
		binary.BigEndian.PutUint32(rec[8:], uint32(j-i))
		h.Write(rec[:])
		h.Write(scratch[i:j])
		i = j
	}
	return h.Sum64()
}

// fnv64a is hash/fnv's 64-bit FNV-1a over a string, hand-rolled (with fnvAdd,
// its one-byte step) so the hot paths never allocate a hasher.
func fnv64a(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h = fnvAdd(h, s[i])
	}
	return h
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvAdd(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// tracePrefix renders the workload's ops up to and including the implicated
// syscall — see TracePrefix, which it delegates to.
func (ck *checker) tracePrefix(sys int) string {
	return TracePrefix(ck.w, sys)
}

// firstLine truncates a panic rendering to its first line so violation
// details stay deterministic and report-sized.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
