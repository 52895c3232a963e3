package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"chipmunk/internal/pmem"
	"chipmunk/internal/trace"
)

// This file holds the allocation machinery behind the zero-alloc check loop:
// per-fence bump arenas for the small per-state slices (subset indices and
// byte-diff keys) and a process-wide, size-keyed free list of
// recording rigs and crash images, so steady-state runs recycle their
// device-sized memory across fences, workloads, and engine runs instead of
// reallocating it — and, through the page sets, clear and copy it at the
// cost of the pages a run touched, not of the device.
//
// Ownership protocol, in one place. "Owner" is whoever owns the checker: the
// supervisor until it starts the run's runner, then the runner, and after a
// takeover its replacement (sandbox.go).
//
//   - Arena memory is written only by the owner, during enumerate; checks
//     only read it, and run on the owner too, so every in-fence reader
//     finishes before the next fence's reset.
//     The one escape is an ABANDONED guest phase, whose crash context still
//     points at its state's subset and may be read indefinitely:
//     the checker counts abandonments and, instead of resetting, DROPS the
//     arenas at the next fence when any occurred — the abandoned guest keeps
//     its (now-private) blocks alive, and the owner starts clean. Reuse
//     therefore never races with a reader. For the same reason the whole
//     scratch bundle is withheld from the cross-run pool after an
//     abandonment (returnScratch).
//   - Slot images follow the lease protocol (sandbox.go): an image whose
//     every guest phase settled clean goes back to the pool when the run
//     ends; a poisoned or abandoned one never does. Cross-run reuse is made
//     safe by run tokens (workerImage.run vs. checker.runID): prime treats
//     an image from another run as never primed, so stale generation
//     numbers can never alias a new run's generations.
//   - A chain's rig (fork.go) recycles when the chain closes. Its
//     recording images and device never reach a runner. The baseline (the
//     working image) and the key scratch are touched by engine code on the
//     runner only, never by a guest phase; a run returns only once every
//     runner has exited or been abandoned INSIDE a guest phase, and an
//     abandoned runner unwinds without touching anything but its image — so
//     the rig serves the chain's next run even after an abandonment. The
//     trace log is covered by the same argument, but unlike the rig it is
//     not rewritten by its next user before use: a stray read of a recycled
//     log would index a truncated entry slice instead of reading stale
//     bytes. It stays forfeited after an abandonment, with the chain's fork
//     points — the conservative rule costs one log per hung check.
//   - Page sets. Every buffer in the free list except the key scratch has
//     a pmem.PageSet, and every byte outside its set pages is zero — so a
//     grab clears, and a baseline or cold prime copies, only pages some run
//     touched. The writers of each buffer keep its set: the recording
//     device marks devPages itself (Store, NTStore, Fence, Patch); the
//     baseline is written by the page-union copy from the persistent image
//     and then by walker applies, all inside devPages, which is why
//     basePages = devPages after recording; a fork chain's template is
//     written only by the page-union copy from the persistent image; an
//     image equals some
//     generation of the baseline between checks (prime, and revert after
//     every clean check), so its set is basePages. stateKey's scratch needs
//     none: it reads only bytes it has just written.
//     TestDeltaMaterializePagedPoolsMatchFresh (harness) checks the
//     invariant with CheckPooledPages after every run.

// arenaBlock is the minimum element capacity of a fresh arena block. Blocks
// grow geometrically toward the fence's running total, and saved slices are
// never moved, so returned slices stay valid until the arena is reset or
// dropped.
const arenaBlock = 4096

// sliceArena is a bump allocator for immutable copies of small slices.
// reset reuses the current block (callers must guarantee no live readers —
// see the ownership protocol above); the zero value is ready to use.
type sliceArena[T any] struct {
	cur  []T
	need int // elements saved this epoch, the high-water sizing input
}

// save copies src into the arena and returns the stable copy
// (capacity-clamped so appends by the caller cannot bleed into neighbors).
// Zero-length saves return nil without touching the arena.
func (a *sliceArena[T]) save(src []T) []T {
	n := len(src)
	if n == 0 {
		return nil
	}
	a.need += n
	if cap(a.cur)-len(a.cur) < n {
		// The outgrown block stays alive through the slices already handed
		// out; the arena just stops bumping it. The replacement is sized to
		// the epoch's running total (at least doubling), so once a block fits
		// a whole fence's saves, steady-state fences allocate nothing — even
		// when individual saves exceed arenaBlock.
		size := a.need
		if size < 2*cap(a.cur) {
			size = 2 * cap(a.cur)
		}
		if size < arenaBlock {
			size = arenaBlock
		}
		a.cur = make([]T, 0, size)
	}
	off := len(a.cur)
	a.cur = a.cur[:off+n]
	copy(a.cur[off:], src)
	return a.cur[off : off+n : off+n]
}

// reset rewinds the arena for reuse of its current block.
func (a *sliceArena[T]) reset() { a.cur = a.cur[:0]; a.need = 0 }

// drop abandons the arena's block entirely (used when an abandoned guest
// phase may still read previously saved slices).
func (a *sliceArena[T]) drop() { a.cur = nil; a.need = 0 }

// internKey returns a string view over arena-saved key bytes without
// copying. Safe because arena memory is immutable until reset/drop and the
// returned string's lifetime (dedup map entries, crashState.key) ends at the
// same fence boundary that resets the arena.
func internKey(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// runIDs issues process-unique run tokens; every checker takes one so pooled
// images recycled across engine runs are never mistaken for primed ones.
var runIDs atomic.Int64

// fenceScratch bundles the owner's per-fence scratch — the dedup map,
// state list, recursion buffer, arenas, state-key buffers and the prefix
// memo's key — so it can be recycled across runs. A fresh checker then
// starts with converged, already-grown blocks instead of re-growing them
// from zero every run, which would otherwise dominate steady-state
// allocations in a campaign of many short runs.
type fenceScratch struct {
	seen      map[string]struct{}
	distinct  []crashState
	subsetBuf []int
	subArena  sliceArena[int]
	keyArena  sliceArena[byte]
	keyBuf    []byte
	spans     []span
	prefix    []byte
}

var scratchPool sync.Pool

// logPool recycles trace logs — the entry slice and the data arena — across
// runs. A log is recycled only when the run abandoned no guest phase
// (engine.go checks; the protocol above says why).
var logPool sync.Pool

// grabLog returns an empty trace log, recycled when the pool has one.
func grabLog() *trace.Log {
	if v := logPool.Get(); v != nil {
		l := v.(*trace.Log)
		l.Reset()
		return l
	}
	return trace.NewLog()
}

// loanScratch moves a pooled bundle into the checker's scratch fields for
// the duration of one run. Stale contents are harmless: every consumer
// truncates or clears before use (enumerate resets the arenas and dedup map
// at each fence, stateKey rewinds keyBuf/spans per state).
func (ck *checker) loanScratch() *fenceScratch {
	v := scratchPool.Get()
	if v == nil {
		return &fenceScratch{}
	}
	s := v.(*fenceScratch)
	ck.seen = s.seen
	ck.distinct = s.distinct
	ck.subsetBuf = s.subsetBuf
	ck.subArena = s.subArena
	ck.keyArena = s.keyArena
	ck.keyBuf = s.keyBuf
	ck.spans = s.spans
	ck.memo.key = s.prefix[:0]
	return s
}

// returnScratch packages the scratch fields back into the bundle and
// recycles it — unless any guest phase was abandoned this run: an
// abandoned guest may read its crash state's arena saves indefinitely,
// so the whole bundle is forfeited to it (same reasoning as
// resetFenceScratch's drop path, extended across the run boundary).
func (ck *checker) returnScratch(s *fenceScratch) {
	if ck.abandoned.Load() != 0 {
		return
	}
	s.seen = ck.seen
	s.distinct = ck.distinct
	s.subsetBuf = ck.subsetBuf
	s.subArena = ck.subArena
	s.keyArena = ck.keyArena
	s.keyBuf = ck.keyBuf
	s.spans = ck.spans
	s.prefix = ck.memo.key
	scratchPool.Put(s)
}

// freeList is a mutex-guarded LIFO of recycled values keyed by device size.
// Unlike a sync.Pool it is not emptied by garbage collection: a rig is four
// device-sized buffers, and every one a GC cycle dropped came back as a
// fresh allocation the next run had to make. It has no fixed cap: a value
// is put back only by the run that took it out, so each list is bounded by
// the most values of its kind ever in use at once — one rig and one image
// per run in flight, however many runs a suite's -j puts in flight.
type freeList[T any] struct {
	mu   sync.Mutex
	free map[int][]T
}

var (
	rigs   freeList[*rig]
	images freeList[*workerImage]
)

func (f *freeList[T]) get(size int) (v T, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	l := f.free[size]
	if len(l) == 0 {
		return v, false
	}
	v = l[len(l)-1]
	var zero T
	l[len(l)-1] = zero
	f.free[size] = l[:len(l)-1]
	return v, true
}

func (f *freeList[T]) put(size int, v T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.free == nil {
		f.free = make(map[int][]T)
	}
	f.free[size] = append(f.free[size], v)
}

// rig is one engine run's device-sized memory outside the crash images: the
// recording device and its two images, the baseline the walk advances in
// place as its working image, and stateKey's scratch. devPages is the page
// set the recording device marks, covering both of its images; basePages
// covers the baseline. A fork chain (fork.go) adds tmpl, the post-Mkfs
// persistent image its runs' baselines start from, covered by tmplPages.
type rig struct {
	vol, pers, baseline, scratch, tmpl []byte
	dev                                *pmem.Device
	devPages, basePages, tmplPages     *pmem.PageSet
	// hasher hashes the baseline for the observation table (observe.go).
	hasher *imageHasher
}

func newRig(size int) *rig {
	r := &rig{
		vol:       make([]byte, size),
		pers:      make([]byte, size),
		baseline:  make([]byte, size),
		scratch:   make([]byte, size),
		devPages:  pmem.NewPageSet(int64(size)),
		basePages: pmem.NewPageSet(int64(size)),
	}
	// WrapImages requires the just-rebooted volatile == persistent
	// invariant, which two zeroed buffers satisfy.
	r.dev = pmem.WrapImages(r.vol, r.pers)
	r.dev.TrackPages(r.devPages)
	return r
}

// grabRig returns a rig whose recording device is just-rebooted over two
// zeroed images; the baseline and scratch hold stale bytes until the run
// writes them. A recycled rig clears only the pages its last run's device
// wrote.
func grabRig(size int) *rig {
	if r, ok := rigs.get(size); ok {
		r.devPages.Clear(r.vol, r.pers)
		r.dev.Reset()
		return r
	}
	return newRig(size)
}

// putRig recycles a rig at the end of its run (see the ownership protocol).
func putRig(r *rig) { rigs.put(len(r.vol), r) }

// grabImage returns a recycled crash image (possibly stale — prime consults
// its run token and generation before trusting it) for a slot to keep until
// the run ends.
func (ck *checker) grabImage() *workerImage {
	if wi, ok := images.get(ck.devSize); ok {
		return wi
	}
	return newWorkerImage(ck.devSize)
}

// putImage recycles a slot's clean image at run end.
func (ck *checker) putImage(wi *workerImage) { images.put(ck.devSize, wi) }

// CheckPooledPages reports the first free-listed buffer that holds a
// non-zero byte outside its page set, or nil when every one keeps the
// invariant the page-union clears and copies rely on. It is a test hook:
// call it only while no engine run is in flight.
func CheckPooledPages() error {
	rigs.mu.Lock()
	defer rigs.mu.Unlock()
	for size, l := range rigs.free {
		for i, r := range l {
			switch {
			case !r.devPages.Covers(r.vol):
				return fmt.Errorf("free rig %d (size %d): volatile image non-zero outside its pages", i, size)
			case !r.devPages.Covers(r.pers):
				return fmt.Errorf("free rig %d (size %d): persistent image non-zero outside its pages", i, size)
			case !r.basePages.Covers(r.baseline):
				return fmt.Errorf("free rig %d (size %d): baseline non-zero outside its pages", i, size)
			case r.tmpl != nil && !r.tmplPages.Covers(r.tmpl):
				return fmt.Errorf("free rig %d (size %d): template non-zero outside its pages", i, size)
			}
		}
	}
	images.mu.Lock()
	defer images.mu.Unlock()
	for size, l := range images.free {
		for i, wi := range l {
			if !wi.pages.Covers(wi.img) {
				return fmt.Errorf("free image %d (size %d): non-zero outside its pages", i, size)
			}
		}
	}
	return nil
}
