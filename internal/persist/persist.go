// Package persist provides the centralized persistence functions that every
// file system in this repository uses to write durable data, and the probe
// mechanism that intercepts them.
//
// This is the Go realization of the paper's key gray-box insight (§3.2): PM
// file systems funnel all durable I/O through a small set of functions —
// non-temporal memcpy, non-temporal memset, buffer flush, and store fence —
// and instrumenting those functions (Kprobes/Uprobes in the paper, a probe
// interface here) records every durable write without modifying file-system
// code and without per-instruction overhead.
//
// PM keeps no caller's buffer: a probe sees the bytes of a Store or a
// MemcpyNT through a PM-owned scratch copy, valid only during the call, so
// the buffer a file system writes from can live on its own stack.
package persist

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"chipmunk/internal/pmem"
)

// WrapTracking returns the device a TrackingDevice records the mutations
// of, for New.
func WrapTracking(t *pmem.TrackingDevice) *pmem.Device { return t.Device }

// Probe observes persistence-function invocations. Implementations must not
// mutate data, and data is valid only during the call: PM reuses the
// buffer, so a probe copies what it keeps (as trace.Log.Append does).
type Probe interface {
	// OnNT fires for non-temporal memcpy/memset; data is the full buffer.
	OnNT(off int64, data []byte, fn string)
	// OnFlush fires for buffer flushes; data is the captured contents of
	// the covered cache lines at flush time, and off is aligned down to a
	// cache-line boundary.
	OnFlush(off int64, data []byte)
	// OnFence fires for store fences.
	OnFence()
	// OnStore fires for plain cached stores ONLY when per-store tracing is
	// enabled (the instruction-level ablation).
	OnStore(off int64, data []byte)
}

// PM couples a device with the persistence-function set. All file systems
// receive a *PM and perform durable I/O exclusively through it.
type PM struct {
	mem    *pmem.Device
	probes []Probe

	// TraceStores enables per-store probing, emulating instruction-level
	// tracers like Yat and Vinter for the overhead ablation.
	TraceStores bool

	// scratch is the buffer probes see: MemsetNT's non-zero pattern (zero
	// fills use the shared zeros buffer), Flush's line capture, and the
	// copy of a Store's or MemcpyNT's source. Handing probes a copy keeps
	// the caller's buffer from escaping through the interface call. Reuse
	// across calls is safe because every consumer copies: the device
	// captures the bytes into its own in-flight storage and probes append
	// private copies.
	scratch []byte
}

// scratchBuf returns p's scratch buffer resized to n bytes.
func (p *PM) scratchBuf(n int) []byte {
	if cap(p.scratch) < n {
		p.scratch = make([]byte, n)
	}
	return p.scratch[:n]
}

// zeroBuf publishes a shared all-zero buffer for MemsetNT's dominant b==0
// case, so zeroing PM ranges neither allocates nor fills: the device copies
// the bytes it keeps and the Probe contract forbids mutating data, so the
// buffer is effectively read-only. Grown (never shrunk) under zeroMu,
// published atomically so concurrent checkers can read it lock-free.
var (
	zeroBuf atomic.Value // []byte
	zeroMu  sync.Mutex
)

func zeros(n int) []byte {
	if b, _ := zeroBuf.Load().([]byte); len(b) >= n {
		return b[:n]
	}
	zeroMu.Lock()
	defer zeroMu.Unlock()
	if b, _ := zeroBuf.Load().([]byte); len(b) >= n {
		return b[:n]
	}
	size := 4096
	for size < n {
		size *= 2
	}
	b := make([]byte, size)
	zeroBuf.Store(b)
	return b[:n]
}

// New wraps mem. Probes can be attached later with Attach.
func New(mem *pmem.Device) *PM { return &PM{mem: mem} }

// Attach registers a probe. Probes fire in attach order.
func (p *PM) Attach(pr Probe) { p.probes = append(p.probes, pr) }

// Detach removes a previously attached probe.
func (p *PM) Detach(pr Probe) {
	for i, x := range p.probes {
		if x == pr {
			p.probes = append(p.probes[:i], p.probes[i+1:]...)
			return
		}
	}
}

// Mem exposes the underlying device (for harness-level snapshots; file
// systems must not use it).
func (p *PM) Mem() *pmem.Device { return p.mem }

// Size returns the device capacity.
func (p *PM) Size() int64 { return p.mem.Size() }

// MemcpyNT copies src to PM at off with non-temporal stores. One logical
// durable write; durable after the next Fence.
func (p *PM) MemcpyNT(off int64, src []byte) {
	p.mem.NTStore(off, src)
	if len(p.probes) == 0 {
		return
	}
	data := p.scratchBuf(len(src))
	copy(data, src)
	for _, pr := range p.probes {
		pr.OnNT(off, data, "memcpy_nt")
	}
}

// MemsetNT writes n copies of b at off with non-temporal stores.
func (p *PM) MemsetNT(off int64, b byte, n int) {
	var buf []byte
	if b == 0 {
		buf = zeros(n)
	} else {
		buf = p.scratchBuf(n)
		for i := range buf {
			buf[i] = b
		}
	}
	p.mem.NTStore(off, buf)
	for _, pr := range p.probes {
		pr.OnNT(off, buf, "memset_nt")
	}
}

// Store performs plain cached stores: visible immediately, durable only
// after Flush + Fence. Not individually traced (function-level logging).
func (p *PM) Store(off int64, src []byte) {
	p.mem.Store(off, src)
	if !p.TraceStores || len(p.probes) == 0 {
		return
	}
	data := p.scratchBuf(len(src))
	copy(data, src)
	for _, pr := range p.probes {
		pr.OnStore(off, data)
	}
}

// Store64 stores a little-endian uint64 (the 8-byte atomic unit on Intel PM).
func (p *PM) Store64(off int64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	p.Store(off, b[:])
}

// Store32 stores a little-endian uint32.
func (p *PM) Store32(off int64, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	p.Store(off, b[:])
}

// Flush writes back the cache lines covering [off, off+n). The captured
// line contents are reported to probes, which is how the recorder learns
// what a crash could persist.
func (p *PM) Flush(off int64, n int) {
	if n <= 0 {
		return
	}
	if len(p.probes) == 0 {
		// No probe wants the capture; skip it. Crash-state check mounts
		// attach no probes, so this removes a full-range copy from every
		// flush the recovery and usability paths issue.
		p.mem.Flush(off, n)
		return
	}
	lo := off &^ (pmem.CacheLineSize - 1)
	hi := (off + int64(n) + pmem.CacheLineSize - 1) &^ (pmem.CacheLineSize - 1)
	if hi > p.mem.Size() {
		hi = p.mem.Size()
	}
	capture := p.scratchBuf(int(hi - lo))
	p.mem.Peek(lo, capture)
	p.mem.Flush(off, n)
	for _, pr := range p.probes {
		pr.OnFlush(lo, capture)
	}
}

// Fence executes a store fence, making all in-flight writes durable.
func (p *PM) Fence() {
	p.mem.Fence()
	for _, pr := range p.probes {
		pr.OnFence()
	}
}

// PersistStore is the common store+flush idiom: cached store of src at off
// followed by a write-back of the covered lines. Still requires Fence.
func (p *PM) PersistStore(off int64, src []byte) {
	p.Store(off, src)
	p.Flush(off, len(src))
}

// PersistStore64 stores, flushes (and leaves fencing to the caller) an
// 8-byte value — the idiom used for log-tail and journal pointers.
func (p *PM) PersistStore64(off int64, v uint64) {
	p.Store64(off, v)
	p.Flush(off, 8)
}

// Load reads n bytes at off.
//
// Fault model: when the device carries an injected fault set
// (pmem.Injector), a load touching a poisoned cache line panics with
// *pmem.MediaError — the software-visible form of an uncorrectable media
// error. PM propagates that panic unchanged; the engine's check sandbox
// catches and classifies it. Recovery code that wants to survive poisoned
// lines instead of aborting the mount should use TryLoad.
func (p *PM) Load(off int64, n int) []byte {
	p.notifyLoad(off, n)
	return p.mem.Load(off, n)
}

// TryLoad is Load with media faults returned as an error instead of raised
// as a panic: the API through which file systems can tolerate read-time
// media errors on their recovery paths. Panics that are not *pmem.MediaError
// propagate unchanged.
func (p *PM) TryLoad(off int64, n int) (data []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			if me, ok := r.(*pmem.MediaError); ok {
				data, err = nil, me
				return
			}
			panic(r)
		}
	}()
	return p.Load(off, n), nil
}

// LoadInto reads len(dst) bytes at off into dst.
func (p *PM) LoadInto(off int64, dst []byte) {
	p.notifyLoad(off, len(dst))
	p.mem.LoadInto(off, dst)
}

// Load64 reads a little-endian uint64 at off.
func (p *PM) Load64(off int64) uint64 {
	p.notifyLoad(off, 8)
	var b [8]byte
	p.mem.LoadInto(off, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// Load32 reads a little-endian uint32 at off.
func (p *PM) Load32(off int64) uint32 {
	p.notifyLoad(off, 4)
	var b [4]byte
	p.mem.LoadInto(off, b[:])
	return binary.LittleEndian.Uint32(b[:])
}
