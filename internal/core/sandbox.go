package core

import (
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
//     deferred recover, and settles with one CAS. Panic, media-error and
//     quarantine handling all happen inline on the runner.
//   - The slot is what the two share: the lease word, the runner's crash
//     image, and whether the state at the cursor already timed out.
//   - The cursor (checker.cur) is the walk's position, kept off the
//     goroutine stack so it outlives a runner.
//
// Takeover. The timer never fires on a clean run. When it does, the
// supervisor abandons the slot if its armed deadline has passed — CAS
// running → abandoned — and otherwise re-arms to the deadline still pending.
// The CAS can only be won during a guest phase, when the runner touches
// nothing but its image and crash context, so winning it transfers ownership
// of the checker: the supervisor retires the image, marks a fresh slot as
// timed out and starts a fresh runner that resumes at the cursor — it
// quarantines the state there and moves on to the next. No check is re-run,
// no journal event or span emitted twice. A guest that
// returns late finds its CAS lost and unwinds touching nothing; one that
// never returns is leaked with its retired image (Go cannot kill a
// goroutine) — the price of a census that always terminates, the same trade
// the paper makes when it shoots a wedged VM. Cancellation abandons a
// running guest phase the same way and returns ctx.Err(); a runner between
// guest phases notices by itself. Engine panics outside the guard
// (enumeration, an observation's Bytes, fold) are caught at the runner's top
// frame and re-raised by the supervisor on RunContext's caller.
//
// Outcome taxonomy — each crash state gets exactly one guarded attempt:
//   - success: the check's verdict (violation or clean) is used as-is;
//   - media error (*pmem.MediaError): an injected fault — classified as
//     VUnreadable (the poison is deterministic by construction);
//   - panic/timeout: the state is quarantined (Result.Quarantined) and
//     classified VPanic/VTimeout. Guests are deterministic functions of
//     their crash image, so a second attempt would either fail the same
//     way or hide a nondeterministic guest.
//
// Crash-image materialization is O(diff), not O(device): a slot's image is
// primed with the fence's base once per generation, each crash state is
// materialized by applying only its diff key's runs (the key stateKey
// already computed during dedup, or its torn-length twin under faults) plus
// an injected bit flip, and after the check the image is restored — guest
// mount-time mutations via the device's undo log, the key runs and the
// flipped byte by re-copying them from the base.

// checkOutcome is what one checked crash state contributes to the result;
// the runner folds it, in canonical rank order, via fold.
type checkOutcome struct {
	v   *Violation
	q   *Quarantine
	ctx CheckContext // crash point identity, for journal attribution
}

// attemptResult is the raw outcome of one guarded attempt.
type attemptResult struct {
	ok        bool
	v         *Violation
	media     *pmem.MediaError
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

// fold applies one outcome to the result, and keeps it for the prefix memo
// when the run is recording its op. Journal events are built only when a
// tracer will write them.
func (ck *checker) fold(out checkOutcome) {
	ck.recordOutcome(out)
	ck.res.StatesChecked++
	if out.q != nil {
		if len(ck.res.Quarantined) >= maxViolationsPerRun {
			ck.res.SuppressedQuarantine++
		} else {
			ck.res.Quarantined = append(ck.res.Quarantined, *out.q)
		}
		if ck.tracer.Enabled() {
			ck.tracer.Emit(obs.Event{
				Type: "quarantine", FS: ck.caps.Name, Workload: ck.w.Name,
				Fence: out.q.Fence, Sys: out.q.Sys, Rank: out.q.Rank,
				Phase: out.q.Phase.String(), Kind: out.q.Kind.String(),
				StateKey: fmt.Sprintf("%016x", out.q.StateKey),
				Detail:   out.q.Detail,
			})
		}
	}
	if out.v != nil {
		ck.reportViolation(*out.v)
		if ck.tracer.Enabled() {
			ck.tracer.Emit(obs.Event{
				Type: "violation", FS: ck.caps.Name, Workload: ck.w.Name,
				Fence: out.ctx.Fence, Sys: out.ctx.Sys, Rank: out.ctx.Rank,
				Phase: out.v.Phase.String(), Kind: out.v.Kind.String(),
				Detail: firstLine(out.v.Detail),
				Prefix: ck.tracePrefix(out.ctx.Sys),
			})
		}
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
	// wi is the runner's crash image, the checker's until the runner starts
	// and again when it exits (nil after a retire until the next state).
	wi *workerImage
	// timedOut marks a replacement runner's slot: the state at the cursor
	// was abandoned past its deadline, so the runner quarantines it instead
	// of mounting it again.
	timedOut bool
	// cctx is the state's crash context, which its guest phase reads: a
	// replacement runner gets a fresh slot, so an abandoned guest's copy is
	// never rewritten under it.
	cctx CheckContext
	// The attempt's use of the observation table: its image's hash, the
	// entry the table held for it, and the entry its guest phase made.
	key       imageHash
	hit, kept *obsEntry
}

func newSlot(timedOut bool) *slot {
	sl := &slot{timedOut: timedOut}
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
// must outlive any runner. It advances the rig's baseline in place as the
// working image and uses its key scratch; basePages must already cover
// every page the walk will write.
func (ck *checker) supervise(rg *rig, log *trace.Log) error {
	// Scratch set-up is a crash-state construction cost: bill it to the
	// replay stage so the -stats sum tracks wall-clock.
	wt := ck.obs.Start()
	ck.devSize = len(rg.baseline)
	ck.scratch = rg.scratch
	ck.basePages = rg.basePages
	if ck.timeout = ck.cfg.CheckTimeout; ck.timeout == 0 {
		ck.timeout = DefaultCheckTimeout
	}
	if ck.ctx != nil {
		ck.doneC = ck.ctx.Done()
	}
	// The image the chain's last run ended on holds that run's generations,
	// which this run's would alias: it starts unprimed.
	if ck.wi != nil {
		ck.wi.gen = -1
	}
	ck.cur = cursor{img: rg.baseline, log: log, lastDone: -1, sig: fnvOffset64}
	if ck.table != nil && rg.hasher == nil {
		rg.hasher = newImageHasher(ck.devSize)
	}
	ck.hasher, ck.hashGen = rg.hasher, -1
	// No advance recipe exists yet: a fresh image (gen -1) at generation 0
	// must cold-prime, not replay an empty recipe.
	ck.advGen = -1
	ck.obs.ObserveSince(obs.StageReplay, wt)

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
	ck.startRunner(false)
	for {
		select {
		case ex := <-ck.exit:
			// An engine panic may have left the image between applyDelta and
			// revert, with bytes outside its page set: it stays with the
			// slot, forfeited. A runner that exited otherwise left it clean.
			if ex.panicVal != nil {
				panic(ex.panicVal)
			}
			ck.wi = ck.slot.wi
			ck.obs.ExtendSince(obs.StageCheck, ex.at)
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
			ck.obs.Inc(obs.CtrImagesRetired)
			ck.abandoned.Add(1)
			if cancelErr != nil {
				return cancelErr
			}
			ck.startRunner(true)
		}
		if timer != nil {
			timer.Reset(time.Duration(next - now))
		}
	}
}

// now is the supervision clock: nanoseconds since the run's epoch.
func (ck *checker) now() int64 { return int64(time.Since(ck.epoch)) }

// startRunner starts a runner on a fresh slot — the run's first, or the
// replacement after a takeover (timedOut), which quarantines the abandoned
// state at the cursor. Supervisor-only.
func (ck *checker) startRunner(timedOut bool) {
	sl := newSlot(timedOut)
	// The runner takes the checker's image — a fresh one after a takeover,
	// whose abandoned slot keeps the old — primed here (the runner's own
	// prime is then a no-op): this goroutine just built the base, so the copy is
	// cache-warm, and a one-state run's runner lives no longer than its
	// guest phase — short enough that the M its start woke is still spinning
	// when it finishes, which saves the second futex wake-up.
	rt := ck.obs.Start()
	if sl.wi, ck.wi = ck.wi, nil; sl.wi == nil {
		sl.wi = newWorkerImage(ck.devSize)
	}
	ck.prime(sl.wi, ck.cur.img, ck.cur.log)
	ck.obs.ObserveSince(obs.StageReplay, rt)
	ck.slot = sl
	ck.obs.Inc(obs.CtrSandboxRunners)
	// The two hand-offs of a run bill their time, but no count, where the
	// per-state ones used to, so the stage windows keep tiling wall-clock:
	// the runner's start to mount, its hand-back to check.
	st := ck.obs.Start()
	go func() {
		ck.obs.ExtendSince(obs.StageMount, st)
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
// on the calling runner: one guarded attempt, classified, and quarantine if
// the guest panicked or hung. A replacement runner entering on a timed-out
// slot classifies the abandoned attempt without mounting the state again.
func (ck *checker) checkOne(sl *slot, img []byte, log *trace.Log, st crashState, cctx CheckContext) (checkOutcome, error) {
	cctx.Subset = st.subset
	sl.cctx = cctx
	r := attemptResult{timedOut: true}
	if sl.timedOut {
		sl.timedOut = false
	} else {
		r = ck.attempt(sl, img, log, st, &sl.cctx)
	}
	switch {
	case r.lost:
		return checkOutcome{}, errLost
	case r.cancelled:
		return checkOutcome{}, ck.cancelled()
	case r.ok:
		return checkOutcome{v: r.v, ctx: cctx}, nil
	case r.media != nil:
		// An injected media fault is deterministic by construction: a
		// modeled crash outcome, not a checker failure — no quarantine.
		ck.obs.Inc(obs.CtrFaultsInjected)
		return checkOutcome{v: ck.violation(&cctx, VUnreadable,
			fmt.Sprintf("reading recovered state failed: %v", r.media)), ctx: cctx}, nil
	}

	// The guest panicked or hung: quarantine the state and classify it.
	kind, detail := VPanic, "check panicked: "+firstLine(r.panicVal)
	if r.timedOut {
		kind, detail = VTimeout, fmt.Sprintf("check exceeded %v deadline", ck.timeout)
	}
	q := &Quarantine{
		Workload: ck.w.Name,
		Fence:    cctx.Fence,
		Sys:      cctx.Sys,
		Phase:    cctx.Phase,
		Rank:     cctx.Rank,
		Subset:   append([]int(nil), st.subset...),
		StateKey: stateDigest(img, st),
		Kind:     kind,
		Detail:   detail,
		Stack:    r.stack,
	}
	return checkOutcome{v: ck.violation(&cctx, kind, detail), q: q, ctx: cctx}, nil
}

// workerImage is one reusable crash image with its device and undo log.
// Invariant between checks: the image holds exactly the contents of the
// run's working image at generation gen (-1 = unprimed), and is therefore
// zero outside pages, which is the run's basePages. prime re-establishes the
// invariant for the current generation, applyDelta perturbs it for one crash
// state, and revert restores it — so a state whose base is already primed
// costs only its own diff, never a device copy. A chain's checker keeps its
// image across runs (arena.go), unprimed at each run's start.
type workerImage struct {
	dev *pmem.Device
	// img is the single buffer serving as BOTH the volatile and persistent
	// image: a just-rebooted device starts with the two identical, and a
	// crash-state check never examines durability again, so the unified
	// device (pmem.WrapImage) keeps them fused — halving prime, delta, and
	// rollback traffic relative to a two-image pair.
	img   []byte
	pages *pmem.PageSet
	undo  *pmem.UndoLog
	gen   int64
}

func newWorkerImage(size int) *workerImage {
	wi := &workerImage{
		img:   make([]byte, size),
		pages: pmem.NewPageSet(int64(size)),
		undo:  pmem.NewUndoLog(nil),
		gen:   -1,
	}
	wi.dev = pmem.WrapImage(wi.img)
	wi.dev.TrackUndo(wi.undo)
	return wi
}

// attempt runs one check attempt on the calling runner: prime the slot's
// image with the fence's base if its generation is stale, apply the crash
// state's delta (its key's runs and an injected bit flip), then mount and
// check under the guard. On a clean finish the delta is reverted and the image
// stays in the slot; a poisoned image is retired.
//
// Replay runs OUTSIDE the guard on purpose: only while the lease is running
// may the supervisor take the checker away, and the argument that makes that
// safe is that a guest phase touches nothing but its image. Replay reads the
// working image and the log, which the replacement runner keeps advancing.
// It is trusted engine code (no guest involvement), so only the guest-facing
// mount/check phase needs containment; media-error panics are raised at read
// time, inside that phase.
func (ck *checker) attempt(sl *slot, img []byte, log *trace.Log, st crashState, cctx *CheckContext) attemptResult {
	rt := ck.obs.Start()
	wi := sl.wi
	if wi == nil {
		wi = newWorkerImage(ck.devSize)
		sl.wi = wi
	}
	inj := ck.injector(cctx)
	// The state's diff key is its exact materialization recipe. A faulted
	// state's is the same key over its writes' torn prefixes; it aliases
	// keyBuf, which nothing else on this runner writes before revert.
	key := st.key
	if inj != nil {
		key = internKey(ck.stateKey(img, log, st.subset, inj))
	}
	ck.prime(wi, img, log)
	flipOff, flipped := ck.applyDelta(wi, key, inj)
	if ck.table != nil {
		sl.key = ck.stateHash(wi.img, st)
		sl.hit, sl.kept = ck.table.lookup(sl.key), nil
	}
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
		ck.revert(wi, img, key, flipOff, flipped)
	default:
		sl.wi = nil
		ck.obs.Inc(obs.CtrImagesRetired)
	}
	if r.ok {
		if sl.kept != nil {
			ck.table.store(sl.key, sl.kept)
		}
		ck.obs.ObserveSince(obs.StageCheck, r.checkStart)
	}
	return r
}

// guard is the one guarded-check body: it runs a guest phase — mount, the
// run's contract, the undo rollback — on the calling runner under the slot's
// lease. Arm, then settle: whoever wins the CAS on the armed word owns the
// image and the checker afterwards. mt is the already-open mount window.
func (ck *checker) guard(sl *slot, dev *pmem.Device, undo *pmem.UndoLog, cctx *CheckContext, mt time.Time) (res attemptResult) {
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
		res = attemptResult{panicVal: fmt.Sprint(r), stack: string(debug.Stack())}
	}()

	v, ct := ck.checkState(sl, dev, cctx, mt)
	// Undo the guest's mount-time mutations while still holding the lease,
	// THEN settle: the caller reverts only the delta. If abandonment
	// won the CAS the rollback was wasted work on a retired buffer — harmless.
	rolledBack := undo.Rollback()
	if !sl.lease.CompareAndSwap(armed, leaseClean) {
		return attemptResult{lost: true}
	}
	return attemptResult{ok: true, v: v, checkStart: ct, rolledBack: rolledBack}
}

// prime establishes the image invariant for the current generation: a
// current image is untouched (zero copies — the empty-subset fast path), an
// image exactly one generation behind catches up by replaying the last
// fence's advance recipe (O(advance bytes)), and anything older — or
// unprimed, fresh or left over from the chain's last run — is cold-primed by
// copying the base over wi.pages ∪ basePages: outside those pages both the
// stale image and the base are zero.
func (ck *checker) prime(wi *workerImage, base []byte, log *trace.Log) {
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
	n := wi.pages.Copy(wi.img, base, ck.basePages)
	wi.gen = ck.baseGen
	ck.obs.Inc(obs.CtrImagePrimes)
	ck.obs.Add(obs.CtrBytesPrimed, n)
}

// applyDelta perturbs a primed image into one crash state: each of key's
// (offset, length, bytes) runs lands on the unified image exactly once —
// overlapping stores were already resolved, last-writer-wins, when the key
// was computed — then the injected bit flip, if any. The just-rebooted
// volatile == persistent invariant is structural: the unified device serves
// both images from wi.img. Cost is O(diff bytes), independent of device
// size.
func (ck *checker) applyDelta(wi *workerImage, key string, inj *pmem.Injector) (flipOff int64, flipped bool) {
	var n int64
	forEachKeyRun(key, func(off int64, data string) {
		copy(wi.img[off:off+int64(len(data))], data)
		n += int64(len(data))
	})
	if flipOff, _, flipped = inj.FlipBit(wi.img); flipped {
		ck.obs.Inc(obs.CtrFaultsInjected)
		n++
	}
	ck.obs.Add(obs.CtrBytesMaterialized, n)
	return flipOff, flipped
}

// revert restores a cleanly-finished image to the fence's base. The guard
// already rolled back the guest's mutations, so exactly the delta this
// attempt applied remains: key's runs, re-copied from the base — the
// minimal restore — and the flipped byte, which may land outside every run
// (inside one, its second restore is a same-value no-op). The image
// invariant (contents == base at wi.gen) holds afterward.
func (ck *checker) revert(wi *workerImage, base []byte, key string, flipOff int64, flipped bool) {
	var n int64
	forEachKeyRun(key, func(off int64, data string) {
		copy(wi.img[off:off+int64(len(data))], base[off:off+int64(len(data))])
		n += int64(len(data))
	})
	if flipped {
		wi.img[flipOff] = base[flipOff]
		n++
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

// injector builds the per-state fault injector (nil when faults are off).
// The salt mixes the crash point's identity — fence ordinal, subset rank,
// syscall, phase — so every state faults independently yet identically on
// any runner.
func (ck *checker) injector(cctx *CheckContext) *pmem.Injector {
	if !ck.cfg.Faults.Enabled() {
		return nil
	}
	salt := uint64(cctx.Fence)*0x100000001b3 ^
		uint64(cctx.Rank)*0x9e3779b97f4a7c15 ^
		uint64(cctx.Sys+2)<<1 ^
		uint64(cctx.Phase)
	return pmem.NewInjector(ck.cfg.Faults, salt)
}

// stateDigest fingerprints a crash state for the quarantine ledger: the
// FNV-64a digest of its byte-diff key against the fence's base, the identity
// dedup keys on, or of the whole image for a post-syscall state, which is
// its base.
func stateDigest(img []byte, st crashState) uint64 {
	if len(st.subset) > 0 {
		return fnv64a(st.key)
	}
	h := fnv.New64a()
	h.Write(img)
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
