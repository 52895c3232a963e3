package core

import (
	"fmt"
	"sync"
	"unsafe"

	"chipmunk/internal/pmem"
	"chipmunk/internal/trace"
)

// This file holds the allocation machinery behind the zero-alloc check loop:
// per-fence bump arenas for the small per-state slices (subset indices and
// byte-diff keys), and the one process-wide free list: idle rigs keyed by
// device size, so steady-state runs recycle their device-sized memory across
// workloads and engine runs instead of reallocating it — and, through the
// page sets, clear and copy it at the cost of the pages a run touched, not
// of the device.
//
// One owner. A Chain (fork.go) owns everything its runs reuse: at its first
// run it takes one rig — recording device, baseline, key scratch, template,
// hasher, trace log, and the checker with its fence scratch, the crash
// device over the baseline, its capture storage and its guest — keeps it
// across its runs, which it makes one at a time, and puts it back in Close,
// emptied of everything but buffers. The guest lives for one mount at a
// time: each crash state remounts it (vfs.Remounter), which rewinds it to
// what its constructor made, keeping only emptied storage; a guest phase
// that does not settle clean drops it (sandbox.go, repair), and so does
// Close, since the rig may next serve another system.
// Within a run the checker's owner is the supervisor until it starts the
// run's runner, then that runner, and after a takeover its replacement
// (sandbox.go). Arena memory is written only by the owner, during enumerate;
// checks only read it, and run on the owner too, so every in-fence reader
// finishes before the next fence's reset.
//
// One forfeit rule. An ABANDONED guest phase may go on, for as long as it
// runs, reading everything its check reads — the checker (its Config,
// contract, workload and result), the crash context whose subset lives in
// the arenas, and, conservatively, the trace log — and writing the crash
// image it was mounted on: the baseline buffer of the moment, with the crash
// device and undo log over it, and the guest it mounted, which it reached
// through its slot. None of it is reused: the supervisor drops the guest and
// rebuilds the baseline in a fresh buffer, device and undo log before it
// starts the replacement runner (sandbox.go, repair), within the run the
// next fence drops the arenas instead of resetting them, and at the run's
// end the chain drops the checker with its guest and scratch, the log, and
// the fork points that index into the log. The capture storage the run's
// contract holds is claimed per Observe (Scratch), so the replacement's
// Observe never shares it with the abandoned one. The rest of the rig —
// recording device, baseline, key scratch, template, hasher — is touched
// only by engine code on the owner, never by an abandoned guest, and an
// abandoned runner unwinds touching nothing but its crash image, so the rig
// serves the chain's next run. An
// image a guest poisoned (a panic or media error left it half-restored) is
// repaired in place.
//
// Page sets. Every buffer in the free list except the key scratch has a
// pmem.PageSet, and every byte outside its set pages is zero — so a grab
// clears, and a baseline or template copy copies, only pages some run
// touched. The writers of each buffer keep its set: the recording device
// marks devPages itself (Store, NTStore, Fence, Patch); the template is
// written only by the page-union copy from the persistent image after Mkfs;
// the baseline is written by page-union copies from the persistent image or
// the template and by walker applies, all inside devPages, which is why
// basePages = devPages after recording. A check writes the baseline too, but
// only through the crash device, whose undo log takes every such byte back —
// after a clean check in its rollback, after a poisoned one at the start of
// the repair. stateKey's scratch needs none: it reads only bytes it has just
// written. TestDeltaMaterializePagedPoolsMatchFresh (harness) checks the
// invariant with CheckPooledPages after every run.

// arenaBlock is the minimum element capacity of a fresh arena block. Blocks
// grow geometrically toward the fence's running total, and saved slices are
// never moved, so returned slices stay valid until the arena is reset or
// dropped.
const arenaBlock = 4096

// sliceArena is a bump allocator for immutable copies of small slices.
// reset reuses the current block (callers must guarantee no live readers —
// see the forfeit rule above); the zero value is ready to use.
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

// fenceScratch is the owner's scratch a checker keeps across its chain's
// runs: the dedup map, the distinct state list, the subset recursion buffer,
// the Vinter filter's kept writes, the arenas behind every crash state's
// subset and key, stateKey's key and merge buffers, and the prefix memo's
// key. Stale contents are harmless: every consumer truncates or clears
// before use (enumerate resets the arenas and the dedup map at each fence,
// stateKey rewinds keyBuf and spans per state, clear empties prefix).
type fenceScratch struct {
	seen      map[string]struct{}
	distinct  []crashState
	subsetBuf []int
	kept      []int
	subArena  sliceArena[int]
	keyArena  sliceArena[byte]
	keyBuf    []byte
	spans     []span
	prefix    []byte
}

// clear empties a checker for its chain's next run: it keeps its buffers —
// the fence scratch, the crash device, the capture storage — and its guest,
// and nothing of the run before (no Config, workload, contract or Result).
func (ck *checker) clear() {
	*ck = checker{fenceScratch: ck.fenceScratch, dev: ck.dev, undo: ck.undo, guest: ck.guest, capture: ck.capture}
	ck.prefix = ck.prefix[:0]
}

// rigs is the free list. Unlike a sync.Pool it is not emptied by garbage
// collection: a rig holds several device-sized buffers, and every one a GC
// cycle dropped came back as a fresh allocation the next chain had to make.
// It has no fixed cap: a rig is put back only by the chain that took it out,
// so the list is bounded by the most chains ever open at once — one per run
// in flight, however many runs a suite's -j puts in flight.
var rigs struct {
	sync.Mutex
	free map[int][]*rig
}

// rig is everything a chain reuses: the recording device and its two
// images, the baseline the walk advances in place as its working image and
// mounts every crash state on, stateKey's scratch, tmpl, the post-Mkfs
// persistent image fork restores and repairs start from, the hasher, the
// trace log, and the checker with its fence scratch and crash device.
// devPages is the page set the recording device marks, covering both of its
// images; basePages covers the baseline and tmplPages the template.
type rig struct {
	vol, pers, baseline, scratch, tmpl []byte
	dev                                *pmem.Device
	devPages, basePages, tmplPages     *pmem.PageSet
	// hasher hashes the baseline for the observation table (observe.go).
	hasher *imageHasher
	// log and ck are made at the chain's first run and again after a run
	// that abandoned a guest phase, which forfeits them.
	log *trace.Log
	ck  *checker
}

func newRig(size int) *rig {
	r := &rig{
		vol:       make([]byte, size),
		pers:      make([]byte, size),
		baseline:  make([]byte, size),
		scratch:   make([]byte, size),
		tmpl:      make([]byte, size),
		devPages:  pmem.NewPageSet(int64(size)),
		basePages: pmem.NewPageSet(int64(size)),
		tmplPages: pmem.NewPageSet(int64(size)),
	}
	// WrapImages requires the just-rebooted volatile == persistent
	// invariant, which two zeroed buffers satisfy.
	r.dev = pmem.WrapImages(r.vol, r.pers)
	r.dev.TrackPages(r.devPages)
	return r
}

// grabRig returns a rig whose recording device is just-rebooted over two
// zeroed images; the baseline, template and scratch hold stale bytes until
// the run writes them. A recycled rig clears only the pages its last run's
// device wrote.
func grabRig(size int) *rig {
	rigs.Lock()
	l := rigs.free[size]
	var r *rig
	if n := len(l); n > 0 {
		r, l[n-1] = l[n-1], nil
		rigs.free[size] = l[:n-1]
	}
	rigs.Unlock()
	if r == nil {
		return newRig(size)
	}
	r.devPages.Clear(r.vol, r.pers)
	r.dev.Reset()
	return r
}

// putRig puts a closed chain's rig back on the free list.
func putRig(r *rig) {
	rigs.Lock()
	defer rigs.Unlock()
	if rigs.free == nil {
		rigs.free = make(map[int][]*rig)
	}
	rigs.free[len(r.vol)] = append(rigs.free[len(r.vol)], r)
}

// CheckPooledPages reports the first free-listed buffer that holds a
// non-zero byte outside its page set, or nil when every one keeps the
// invariant the page-union clears and copies rely on. It is a test hook:
// call it only while no engine run is in flight.
func CheckPooledPages() error {
	rigs.Lock()
	defer rigs.Unlock()
	for size, l := range rigs.free {
		for i, r := range l {
			switch {
			case !r.devPages.Covers(r.vol):
				return fmt.Errorf("free rig %d (size %d): volatile image non-zero outside its pages", i, size)
			case !r.devPages.Covers(r.pers):
				return fmt.Errorf("free rig %d (size %d): persistent image non-zero outside its pages", i, size)
			case !r.basePages.Covers(r.baseline):
				return fmt.Errorf("free rig %d (size %d): baseline non-zero outside its pages", i, size)
			case !r.tmplPages.Covers(r.tmpl):
				return fmt.Errorf("free rig %d (size %d): template non-zero outside its pages", i, size)
			}
		}
	}
	return nil
}
