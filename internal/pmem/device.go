// Package pmem simulates a byte-addressable persistent-memory device with
// x86-style persistence semantics: regular stores land in a volatile cache
// and become durable only after an explicit cache-line write-back followed
// by a store fence; non-temporal stores bypass the cache but still require a
// fence before they are guaranteed durable. Writes that have been flushed or
// written non-temporally but not yet fenced are "in flight": on a crash, any
// subset of them may have reached the media, in any order.
//
// The device keeps two byte images: the volatile image (what loads observe)
// and the persistent image (what survives a crash). A crash image is a copy
// of the persistent image, optionally with a chosen subset of in-flight
// writes applied — exactly the crash-state model Chipmunk replays.
package pmem

import (
	"fmt"
	"sort"
)

const (
	// CacheLineSize is the granularity of flush operations, matching x86.
	CacheLineSize = 64
	// WordSize is the unit of write atomicity on Intel PM (8 bytes).
	WordSize = 8
)

// WriteKind distinguishes the two ways bytes become in-flight.
type WriteKind uint8

const (
	// KindFlush is a cache-line write-back (clwb/clflushopt) of bytes
	// previously written with regular stores.
	KindFlush WriteKind = iota
	// KindNT is a non-temporal store (movnt) that bypassed the cache.
	KindNT
)

func (k WriteKind) String() string {
	switch k {
	case KindFlush:
		return "flush"
	case KindNT:
		return "nt"
	default:
		return fmt.Sprintf("WriteKind(%d)", uint8(k))
	}
}

// InFlight is one durable-intent write that has not yet been fenced. Data is
// a private copy captured at flush/store time.
type InFlight struct {
	Kind WriteKind
	Off  int64
	Data []byte
}

// Device is a simulated PM device. It is not safe for concurrent use;
// Chipmunk runs workloads sequentially, as the paper does.
type Device struct {
	volatile   []byte
	persistent []byte
	inflight   []InFlight

	// faults, when non-nil, poisons cache lines: loads touching one panic
	// with *MediaError (see InjectFaults).
	faults *Injector

	// undo, when non-nil, captures the old contents of every image range a
	// mutation is about to overwrite (see TrackUndo), so the engine can roll
	// a pooled crash image back instead of re-copying the device.
	undo *UndoLog

	// pages, when non-nil, collects every page a mutation writes in either
	// image (see TrackPages).
	pages *PageSet

	// reads backs Load results, writes backs in-flight Data captures; both
	// recycle one buffer per epoch instead of allocating per call (see
	// byteArena for the lifetime contract).
	reads  byteArena
	writes byteArena

	// unified marks a device whose volatile and persistent slices alias the
	// SAME buffer (see WrapImage): every store is immediately "durable", so
	// in-flight capture, fence persistence, and flush captures are skipped.
	// Only meaningful for post-crash checking, where durability is never
	// examined again — the recording device must stay two-image.
	unified bool

	stats Stats
}

// NewDevice returns a zeroed device of the given size in bytes.
func NewDevice(size int64) *Device {
	if size <= 0 {
		panic(fmt.Sprintf("pmem: invalid device size %d", size))
	}
	return &Device{
		volatile:   make([]byte, size),
		persistent: make([]byte, size),
	}
}

// FromImage builds a device whose volatile and persistent images are both
// initialized from img, as if the machine had just rebooted from that crash
// image. The slice is copied.
func FromImage(img []byte) *Device {
	d := NewDevice(int64(len(img)))
	copy(d.volatile, img)
	copy(d.persistent, img)
	return d
}

// WrapImages builds a device directly over caller-owned volatile and
// persistent buffers, without copying either — the copy-free snapshot
// constructor the engine's pooled crash-state checks use. Both slices must
// have equal, non-zero length and identical contents (the just-rebooted
// invariant FromImage establishes by copying), and the caller must not read
// or recycle the buffers until it is done with the device.
func WrapImages(volatile, persistent []byte) *Device {
	if len(volatile) != len(persistent) {
		panic(fmt.Sprintf("pmem: WrapImages buffer sizes differ: %d vs %d", len(volatile), len(persistent)))
	}
	if len(volatile) == 0 {
		panic("pmem: WrapImages on empty buffers")
	}
	return &Device{
		volatile:   volatile,
		persistent: persistent,
	}
}

// WrapImage builds a unified device over ONE caller-owned buffer serving as
// both images. A crashed-and-rebooted machine starts with volatile ==
// persistent, and a crash-state check never crashes again — durability is
// never examined — so the separation only costs memory and copies there.
// On a unified device stores are immediately durable: NTStore and Flush
// capture nothing in flight and Fence has nothing to persist. Guest-visible
// behavior (loads and media faults) is identical to a two-image device,
// which the differential tests pin. Do NOT use for
// recording: crash-state enumeration needs the real in-flight sets.
func WrapImage(img []byte) *Device {
	if len(img) == 0 {
		panic("pmem: WrapImage on empty buffer")
	}
	return &Device{
		volatile:   img,
		persistent: img,
		unified:    true,
	}
}

// TrackUndo attaches an undo log: from now on every mutation of either
// image — stores and non-temporal stores (volatile), fence persists
// (persistent), and patches (both) — saves the overwritten range first, so
// u.Rollback() restores both images exactly. The attachment survives Reset;
// pass nil to detach. Flush mutates no image and records nothing.
func (d *Device) TrackUndo(u *UndoLog) { d.undo = u }

// TrackPages attaches a page set: from now on every mutation of either
// image — Store and NTStore (volatile), Fence (persistent), Patch (both) —
// marks the pages it writes, so a caller that attached the set to zeroed
// images knows every byte outside it is still zero. Flush mutates no image
// and marks nothing. The attachment survives Reset; pass nil to detach.
func (d *Device) TrackPages(s *PageSet) { d.pages = s }

// Reset returns the device to the just-rebooted state over its current
// images without reallocating: in-flight writes and cost-model counters
// are cleared, the capture arenas rewind, and any fault
// injector is detached. The images and an attached undo log and page set
// are untouched — this is how the engine reuses one pooled device across
// crash states, and one recording device across runs.
func (d *Device) Reset() {
	d.inflight = d.inflight[:0]
	d.faults = nil
	d.reads.reset()
	d.writes.reset()
	d.stats = Stats{}
}

// Size returns the device capacity in bytes.
func (d *Device) Size() int64 { return int64(len(d.volatile)) }

func (d *Device) checkRange(off int64, n int) {
	if off < 0 || n < 0 || off+int64(n) > int64(len(d.volatile)) {
		panic(fmt.Sprintf("pmem: access [%d, %d) outside device of size %d", off, off+int64(n), len(d.volatile)))
	}
}

// Store performs regular (cached, write-back) stores of p at off. The bytes
// are visible to Load immediately but will not survive a crash until the
// covering cache lines are flushed and a fence executes.
func (d *Device) Store(off int64, p []byte) {
	d.checkRange(off, len(p))
	if d.undo != nil {
		d.undo.SaveImage(d.volatile, off, len(p))
	}
	d.mark(off, len(p))
	copy(d.volatile[off:], p)
	d.stats.StoreBytes += int64(len(p))
	d.stats.SimNanos += costStore(len(p))
}

// NTStore performs a non-temporal store: the bytes are visible immediately
// and become an in-flight write at once (no separate flush needed), durable
// after the next Fence.
func (d *Device) NTStore(off int64, p []byte) {
	d.checkRange(off, len(p))
	if d.undo != nil {
		d.undo.SaveImage(d.volatile, off, len(p))
	}
	d.mark(off, len(p))
	copy(d.volatile[off:], p)
	if !d.unified {
		data := d.writes.take(len(p))
		copy(data, p)
		d.inflight = append(d.inflight, InFlight{Kind: KindNT, Off: off, Data: data})
	}
	d.stats.NTBytes += int64(len(p))
	d.stats.NTStores++
	d.stats.SimNanos += costNT(len(p))
}

// Flush writes back the cache lines covering [off, off+n). The current
// volatile contents of each covered line are captured as in-flight writes.
// Lines with no unflushed stores are still captured (clwb of a clean line is
// legal and harmless), because the capture is what the crash-state replayer
// keys on.
func (d *Device) Flush(off int64, n int) {
	if n == 0 {
		return
	}
	d.checkRange(off, n)
	first := off / CacheLineSize
	last := (off + int64(n) - 1) / CacheLineSize
	for line := first; line <= last; line++ {
		if !d.unified {
			lo := line * CacheLineSize
			hi := lo + CacheLineSize
			if hi > int64(len(d.volatile)) {
				hi = int64(len(d.volatile))
			}
			data := d.writes.take(int(hi - lo))
			copy(data, d.volatile[lo:hi])
			d.inflight = append(d.inflight, InFlight{Kind: KindFlush, Off: lo, Data: data})
		}
		d.stats.LinesFlushed++
	}
	d.stats.Flushes++
	d.stats.SimNanos += costFlush(int(last - first + 1))
}

// Fence executes a store fence: every in-flight write becomes persistent, in
// order. Returns the number of writes that were in flight, which Chipmunk's
// crash-state constructor uses to bound subset enumeration.
func (d *Device) Fence() int {
	n := len(d.inflight)
	for _, w := range d.inflight {
		if d.undo != nil {
			d.undo.SaveImage(d.persistent, w.Off, len(w.Data))
		}
		d.mark(w.Off, len(w.Data))
		copy(d.persistent[w.Off:], w.Data)
	}
	d.inflight = d.inflight[:0]
	d.writes.reset()
	d.stats.Fences++
	if int64(n) > d.stats.MaxInFlight {
		d.stats.MaxInFlight = int64(n)
	}
	d.stats.SimNanos += costFence()
	return n
}

// mark records a write of [off, off+n) in the attached page set, if any.
func (d *Device) mark(off int64, n int) {
	if d.pages != nil {
		d.pages.Mark(off, n)
	}
}

// InjectFaults attaches a fault injector to the device: subsequent Load and
// LoadInto calls touching a poisoned cache line panic with *MediaError. The
// engine attaches injectors only to the private per-crash-state devices its
// sandbox mounts, never to the recording device.
func (d *Device) InjectFaults(inj *Injector) { d.faults = inj }

// failOnPoisoned raises the media error for reads overlapping a poisoned
// line. No-op without an attached injector.
func (d *Device) failOnPoisoned(off int64, n int) {
	if d.faults == nil || n <= 0 {
		return
	}
	for line := off / CacheLineSize; line <= (off+int64(n)-1)/CacheLineSize; line++ {
		if d.faults.Poisoned(line) {
			panic(&MediaError{Off: line * CacheLineSize})
		}
	}
}

// Load copies n bytes at off into an arena-backed slice, observing the
// volatile image (i.e. the most recent stores, durable or not). The slice is
// valid until the device is Reset; callers that outlive a reset (none of the
// file systems do — an instance lives for one mount at a time, and a
// remount reads the image anew) must copy.
func (d *Device) Load(off int64, n int) []byte {
	d.checkRange(off, n)
	d.failOnPoisoned(off, n)
	out := d.reads.take(n)
	copy(out, d.volatile[off:])
	d.stats.SimNanos += costLoad(n)
	return out
}

// Peek reads len(p) bytes at off into p without advancing the cost model.
// Used by tracing instrumentation to capture flush contents; instrumentation
// overhead must not perturb the simulated-latency measurements.
func (d *Device) Peek(off int64, p []byte) {
	d.checkRange(off, len(p))
	copy(p, d.volatile[off:])
}

// LoadInto reads n = len(p) bytes at off into p without allocating.
func (d *Device) LoadInto(off int64, p []byte) {
	d.checkRange(off, len(p))
	d.failOnPoisoned(off, len(p))
	copy(p, d.volatile[off:])
	d.stats.SimNanos += costLoad(len(p))
}

// InFlightWrites returns a copy of the current in-flight write set (writes
// that would be lost — or not — at a crash right now).
func (d *Device) InFlightWrites() []InFlight {
	out := make([]InFlight, len(d.inflight))
	for i, w := range d.inflight {
		out[i] = InFlight{Kind: w.Kind, Off: w.Off, Data: append([]byte(nil), w.Data...)}
	}
	return out
}

// InFlightCount returns how many writes are currently in flight.
func (d *Device) InFlightCount() int { return len(d.inflight) }

// CrashImage returns a copy of the persistent image: the state of the media
// if power were lost right now and no in-flight write had reached it.
func (d *Device) CrashImage() []byte {
	return append([]byte(nil), d.persistent...)
}

// CrashImageWithSubset returns a crash image with the in-flight writes whose
// indices appear in subset applied in program order (ascending index),
// regardless of the order of subset. Indices out of range panic.
func (d *Device) CrashImageWithSubset(subset []int) []byte {
	img := d.CrashImage()
	idx := append([]int(nil), subset...)
	sort.Ints(idx)
	for _, i := range idx {
		if i < 0 || i >= len(d.inflight) {
			panic(fmt.Sprintf("pmem: in-flight index %d out of range %d", i, len(d.inflight)))
		}
		w := d.inflight[i]
		copy(img[w.Off:], w.Data)
	}
	return img
}

// Patch writes p at off into BOTH the volatile and persistent images,
// bypassing the cache model. It exists for crash-state construction: the
// replayer builds an image by patching recorded writes onto a baseline, and
// the resulting device must behave as freshly rebooted.
func (d *Device) Patch(off int64, p []byte) {
	d.checkRange(off, len(p))
	if d.undo != nil {
		d.undo.SaveImage(d.volatile, off, len(p))
		if !d.unified {
			d.undo.SaveImage(d.persistent, off, len(p))
		}
	}
	d.mark(off, len(p))
	copy(d.volatile[off:], p)
	if !d.unified {
		copy(d.persistent[off:], p)
	}
}

// VolatileImage returns a copy of the volatile image (what a crash-free
// reader would see). Useful for differential tests.
func (d *Device) VolatileImage() []byte {
	return append([]byte(nil), d.volatile...)
}

// DeviceMark is a device's state at one moment: a position in its undo log,
// and copies of the in-flight writes and counters.
type DeviceMark struct {
	undo     UndoMark
	inflight []InFlight
	stats    Stats
}

// Mark captures the device's state for Restore. The attached undo log (see
// TrackUndo) must stay attached until the last Restore to the mark.
func (d *Device) Mark() DeviceMark {
	return DeviceMark{undo: d.undo.Mark(), inflight: d.InFlightWrites(), stats: d.stats}
}

// Restore returns the device to mark m at the cost of the bytes written
// since. Marks taken after m become invalid; m may be restored again.
func (d *Device) Restore(m DeviceMark) {
	d.undo.RollbackTo(m.undo)
	d.inflight = append(d.inflight[:0], m.inflight...)
	d.writes.reset()
	d.stats = m.stats
}

// Stats returns a copy of the accumulated cost-model counters.
func (d *Device) Stats() Stats { return d.stats }

// ResetStats zeroes the cost-model counters (the images are untouched).
func (d *Device) ResetStats() { d.stats = Stats{} }
