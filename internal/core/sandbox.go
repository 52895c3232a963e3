package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"
	"unsafe"

	"chipmunk/internal/obs"
	"chipmunk/internal/pmem"
	"chipmunk/internal/trace"
	"chipmunk/internal/vfs"
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
//   - The slot is what the two share: the lease word, the state's crash
//     context, and whether the state at the cursor already timed out.
//   - The cursor (checker.cur) is the walk's position, kept off the
//     goroutine stack so it outlives a runner.
//
// Takeover. The timer never fires on a clean run. When it does, the
// supervisor abandons the slot if its armed deadline has passed — CAS
// running → abandoned — and otherwise re-arms to the deadline still pending.
// The CAS can only be won during a guest phase, when the runner touches
// nothing but the crash image and context, so winning it transfers ownership
// of the checker: the supervisor repairs the working image into a fresh
// buffer, marks a fresh slot as timed out and starts a fresh runner that
// resumes at the cursor — it quarantines the state there and moves on to the
// next. No check is re-run, no journal event or span emitted twice. A guest
// that returns late finds its CAS lost and unwinds touching nothing but the
// buffer it was mounted on, which nobody reads any more; one that never
// returns is leaked with that buffer (Go cannot kill a goroutine) — the
// price of a census that always terminates, the same trade the paper makes
// when it shoots a wedged VM. Cancellation abandons a
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
// Crash-image materialization is O(diff), not O(device), on one buffer:
// every crash state is mounted on the walk's working image itself. The
// state's diff key runs (the key stateKey already computed during dedup, or
// its torn-length twin under faults) and its injected bit flip land through
// the crash device's undo log, so the one Rollback after the check restores
// the guest's writes and the delta together. A guest phase that does not
// settle clean has the image repaired instead (repair).

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
// and with it ownership of the image and the checker: a clean image is
// already rolled back, everything else is repaired — a poisoned image in
// place, an abandoned one in a fresh buffer, as its guest may still be
// scribbling on the old one.
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
	// guest is the file system the phase mounts on: the checker's, handed
	// over by attempt, or the fresh one the phase built (nil until then).
	guest vfs.FS
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
// working image, mounts every crash state on it, and uses its key scratch;
// basePages must already cover every page the walk will write.
func (ck *checker) supervise(rg *rig, log *trace.Log) error {
	// Scratch set-up is a crash-state construction cost: bill it to the
	// replay stage so the -stats sum tracks wall-clock.
	wt := ck.obs.Start()
	ck.rg, ck.scratch = rg, rg.scratch
	if ck.timeout = ck.cfg.CheckTimeout; ck.timeout == 0 {
		ck.timeout = DefaultCheckTimeout
	}
	if ck.ctx != nil {
		ck.doneC = ck.ctx.Done()
	}
	if ck.dev == nil {
		ck.dev, ck.undo = crashDevice(rg.baseline)
	}
	ck.cur = cursor{img: rg.baseline, log: log, lastDone: -1, sig: fnvOffset64}
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
			// An engine panic may have unwound between a state's delta and
			// its rollback: take the delta back, so the rig keeps its base.
			if ex.panicVal != nil {
				ck.undo.Rollback()
				panic(ex.panicVal)
			}
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
			ck.abandoned.Add(1)
			ck.repair(true)
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
func (ck *checker) checkOne(sl *slot, st crashState, cctx CheckContext) (checkOutcome, error) {
	cctx.Subset = st.subset
	sl.cctx = cctx
	r := attemptResult{timedOut: true}
	if sl.timedOut {
		sl.timedOut = false
	} else {
		r = ck.attempt(sl, st, &sl.cctx)
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
		StateKey: stateDigest(ck.cur.img, st),
		Kind:     kind,
		Detail:   detail,
		Stack:    r.stack,
	}
	return checkOutcome{v: ck.violation(&cctx, kind, detail), q: q, ctx: cctx}, nil
}

// crashDevice wraps the working image in the device every crash state is
// mounted on, with the undo log that restores it. The one buffer serves as
// BOTH the volatile and persistent image: a just-rebooted device starts with
// the two identical, and a crash-state check never examines durability
// again, so the unified device (pmem.WrapImage) keeps them fused.
func crashDevice(img []byte) (*pmem.Device, *pmem.UndoLog) {
	dev, undo := pmem.WrapImage(img), pmem.NewUndoLog(nil)
	dev.TrackUndo(undo)
	return dev, undo
}

// attempt runs one check attempt on the calling runner: apply the crash
// state's delta (its key's runs and an injected bit flip) to the working
// image, then mount and check under the guard, whose rollback takes the
// guest's writes and the delta back together. A phase that did not settle
// clean leaves the image to repair.
//
// Replay runs OUTSIDE the guard on purpose: only while the lease is running
// may the supervisor take the checker away, and the argument that makes that
// safe is that a guest phase touches nothing but its crash image and
// context. Replay reads the working image and the log, which the replacement
// runner keeps advancing. It is trusted engine code (no guest involvement),
// so only the guest-facing mount/check phase needs containment; media-error
// panics are raised at read time, inside that phase.
func (ck *checker) attempt(sl *slot, st crashState, cctx *CheckContext) attemptResult {
	rt := ck.obs.Start()
	dev, undo := ck.dev, ck.undo
	inj := ck.injector(cctx)
	// The state's diff key is its exact materialization recipe. A faulted
	// state's is the same key over its writes' torn prefixes; it aliases
	// keyBuf, which nothing else on this runner writes before the rollback.
	key := st.key
	if inj != nil {
		key = internKey(ck.stateKey(ck.cur.img, ck.cur.log, st.subset, inj))
	}
	if ck.table != nil && ck.hasher == nil {
		ck.syncHasher() // the hasher describes the base: before the delta lands
	}
	ck.applyDelta(key, inj)
	if ck.table != nil {
		sl.key = ck.stateHash(ck.cur.img, st)
		sl.hit, sl.kept = ck.table.lookup(sl.key), nil
	}
	ck.obs.ObserveSince(obs.StageReplay, rt)
	dev.Reset()
	dev.InjectFaults(inj)

	sl.guest = ck.guest
	r := ck.guard(sl, dev, undo, cctx, ck.obs.Start())
	switch {
	case r.lost:
		return r
	case r.cancelled:
		// The guest never ran: the delta alone is on the image.
		r.rolledBack = undo.Rollback()
	case !r.ok:
		ck.repair(false)
	}
	ck.obs.Add(obs.CtrBytesRolledBack, r.rolledBack)
	if r.ok {
		// A guest that remounts serves the next state too.
		if _, ok := sl.guest.(vfs.Remounter); ok {
			ck.guest = sl.guest
		}
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
			// Abandoned mid-check: the image is the supervisor's to repair.
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
	// Undo the guest's mount-time mutations and the state's delta while
	// still holding the lease, THEN settle. If abandonment won the CAS the
	// rollback was wasted work on a forfeited buffer — harmless.
	rolledBack := undo.Rollback()
	if !sl.lease.CompareAndSwap(armed, leaseClean) {
		return attemptResult{lost: true}
	}
	return attemptResult{ok: true, v: v, checkStart: ct, rolledBack: rolledBack}
}

// applyDelta perturbs the working image into one crash state through the
// crash device, whose undo log saves every byte it overwrites: each of key's
// (offset, length, bytes) runs lands exactly once — overlapping stores were
// already resolved, last-writer-wins, when the key was computed — then the
// injected bit flip, if any. The just-rebooted volatile == persistent
// invariant is structural: the unified device serves both images from one
// buffer. Cost is O(diff bytes), independent of device size.
func (ck *checker) applyDelta(key string, inj *pmem.Injector) {
	var n int64
	forEachKeyRun(key, func(off int64, data string) {
		ck.dev.Patch(off, unsafe.Slice(unsafe.StringData(data), len(data)))
		n += int64(len(data))
	})
	if off, bit, flipped := inj.FlipSite(len(ck.cur.img)); flipped {
		ck.dev.Patch(off, []byte{ck.cur.img[off] ^ 1<<bit})
		ck.obs.Inc(obs.CtrFaultsInjected)
		n++
	}
	ck.obs.Add(obs.CtrBytesMaterialized, n)
}

// repair rebuilds the working image after a guest phase that did not settle
// clean — a panic, a media error, a takeover or a cancel: the rig's
// post-Mkfs template, plus every write the walk applied at a fence before
// the cursor, in log order, the order the walk applied them in. The walk's
// base at the cursor is a function of the template and the log alone, so
// the repaired image is the one a clean phase would have left. A poisoned
// image is rebuilt in place, after its undo log took back whatever the guest
// wrote outside the pages the copy covers. An abandoned phase's guest may
// still write its buffer, device and undo log: they are forfeited (arena.go)
// and the image is rebuilt in fresh ones. Either way the checker drops its
// guest, which the phase may have left half-mounted or may still be
// running: the next state mounts on a fresh one. Owner-only.
func (ck *checker) repair(fresh bool) {
	rg, c := ck.rg, &ck.cur
	ck.obs.Inc(obs.CtrImagesRetired)
	ck.guest = nil
	if fresh {
		rg.baseline = make([]byte, len(rg.baseline))
		ck.dev, ck.undo = crashDevice(rg.baseline)
	} else {
		ck.undo.Rollback()
	}
	c.img = rg.baseline
	rg.basePages.Copy(c.img, rg.tmpl, rg.tmplPages)
	rg.basePages.Assign(rg.devPages)
	entries := c.log.Entries()[:c.idx]
	last := 0
	for i, e := range entries {
		if e.Kind == trace.KindFence {
			last = i
		}
	}
	for _, e := range entries[:last] {
		trace.Apply(c.img, e)
	}
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
