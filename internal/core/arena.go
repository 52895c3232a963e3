package core

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"chipmunk/internal/trace"
)

// This file holds the allocation machinery behind the zero-alloc check loop:
// per-fence bump arenas for the small per-state slices (subset indices,
// merged spans, byte-diff keys) and process-wide size-keyed pools for the
// device-sized buffers and pooled crash-image pairs, so steady-state runs
// recycle O(device) memory across fences, workloads, and engine runs instead
// of reallocating it. Config.DisableBufferReuse bypasses the cross-run pools
// (every grab is a fresh allocation, every put a drop) for differential
// testing.
//
// Ownership protocol, in one place. "Owner" is whoever owns the checker: the
// supervisor until it starts the run's runner, then the runner, and after a
// takeover its replacement (sandbox.go).
//
//   - Arena memory is written only by the owner, during enumerate; checks
//     only read it, and run on the owner too, so every in-fence reader
//     finishes before the next fence's reset.
//     The one escape is an ABANDONED guest phase, whose crash context still
//     points at its state's subset/spans/key and may be read indefinitely:
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
//   - The device-sized buffers of a run (engine.go) recycle when RunContext
//     returns. recVol/recPers never reach a runner. The baseline (the
//     working image) and the key scratch are touched by engine code on the
//     runner only, never by a guest phase; RunContext returns only once
//     every runner has exited or been abandoned INSIDE a guest phase, and an
//     abandoned runner unwinds without touching anything but its image — so
//     both recycle even after an abandonment. The trace log is covered by
//     the same argument, but unlike those two it is not rewritten wholesale
//     by its next user: a stray read of a recycled log would index a
//     truncated entry slice instead of reading stale bytes. It stays
//     forfeited after an abandonment — the conservative rule costs one log
//     per hung check.

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
// state list, recursion buffer, arenas, and state-key
// buffers — so it can be recycled across runs. A fresh checker then starts
// with converged, already-grown blocks instead of re-growing them from zero
// every run, which would otherwise dominate steady-state allocations in a
// campaign of many short runs.
type fenceScratch struct {
	seen      map[string]struct{}
	distinct  []crashState
	subsetBuf []int
	subArena  sliceArena[int]
	spanArena sliceArena[span]
	keyArena  sliceArena[byte]
	keyBuf    []byte
	spans     []span
}

var scratchPool sync.Pool

// logPool recycles trace logs — the entry slice and the data arena — across
// runs. A log is recycled only when the run abandoned no guest phase
// (engine.go checks; the protocol above says why).
var logPool sync.Pool

// grabLog returns an empty trace log, recycled when reuse is enabled.
func grabLog(fresh bool) *trace.Log {
	if !fresh {
		if v := logPool.Get(); v != nil {
			l := v.(*trace.Log)
			l.Reset()
			return l
		}
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
	ck.spanArena = s.spanArena
	ck.keyArena = s.keyArena
	ck.keyBuf = s.keyBuf
	ck.spans = s.spans
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
	s.spanArena = ck.spanArena
	s.keyArena = ck.keyArena
	s.keyBuf = ck.keyBuf
	s.spans = ck.spans
	scratchPool.Put(s)
}

// bufPools and imagePools are process-wide pools keyed by buffer size.
// Workloads in one campaign share a device size, so in steady state every
// grab is a recycle.
var (
	bufPools   sync.Map // int -> *sync.Pool of []byte
	imagePools sync.Map // int -> *sync.Pool of *workerImage
)

func poolFor(m *sync.Map, size int) *sync.Pool {
	if p, ok := m.Load(size); ok {
		return p.(*sync.Pool)
	}
	p, _ := m.LoadOrStore(size, &sync.Pool{})
	return p.(*sync.Pool)
}

// grabBuf returns a []byte of the given size with unspecified contents.
// fresh bypasses the pool (Config.DisableBufferReuse).
func grabBuf(size int, fresh bool) []byte {
	if !fresh {
		if v := poolFor(&bufPools, size).Get(); v != nil {
			return v.([]byte)
		}
	}
	return make([]byte, size)
}

// grabZeroBuf returns a zeroed []byte of the given size.
func grabZeroBuf(size int, fresh bool) []byte {
	if !fresh {
		if v := poolFor(&bufPools, size).Get(); v != nil {
			b := v.([]byte)
			clear(b)
			return b
		}
	}
	return make([]byte, size)
}

// putBuf recycles a grabBuf buffer. Never put a buffer a goroutine may still
// touch — see the ownership protocol at the top of this file.
func putBuf(b []byte, fresh bool) {
	if fresh || len(b) == 0 {
		return
	}
	poolFor(&bufPools, len(b)).Put(b) //nolint:staticcheck // fixed-size []byte, pooled by design
}

// grabImage returns a pooled crash image (possibly stale — prime consults
// its run token and generation before trusting it) for a slot to keep until
// the run ends. The checker resolves its size-keyed pool once per run
// (supervise): sync.Map.Load would box the int size on every call.
func (ck *checker) grabImage() *workerImage {
	if ck.imgPool != nil {
		if v := ck.imgPool.Get(); v != nil {
			return v.(*workerImage)
		}
	}
	return newWorkerImage(ck.devSize)
}

// putImage recycles a slot's clean image at run end. Storing the
// *workerImage pointer (not a slice) keeps the Put interface conversion
// allocation-free.
func (ck *checker) putImage(wi *workerImage) {
	if ck.imgPool != nil {
		ck.imgPool.Put(wi)
	}
}
