package obs

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"
)

// This file is the deterministic span layer: completed spans land in the
// run journal as `"span"` events, giving the timeline tooling
// (journaltool -timeline) per-trace waterfalls without a second sink or an
// external tracing dependency. A span is an engine stage's one record,
// counts included; Tracer.Emit writes the events that are not spans.
//
// Determinism contract: trace and span IDs are pure functions of work
// coordinates, never of scheduling. A trace ID derives from (seed, shard
// index) via splitmix64, or from a parent trace and a key (Derive); a span
// ID derives from (trace ID, span name, workload name, fence ordinal,
// rank/call index) via FNV-64a. Because each engine run emits from its one
// walker and IDs carry no counter state, a serial and a parallel run of
// the same suite emit identical canonical multisets — Time and DurNanos
// are wall-clock measurements, cleared by Event.CanonicalKey.
//
// A nil *Tracer is a no-op sink: every method returns immediately without
// allocating and Begin never reads the clock, preserving the package's
// zero-alloc-when-off contract on the check hot path.

// Tracer derives deterministic trace/span IDs and emits completed spans
// into a Journal. One Tracer covers one trace: a suite run, or one shard
// of a campaign.
type Tracer struct {
	j     *Journal
	trace string
}

// NewTracer builds a tracer whose trace ID is a pure function of (seed,
// shard): the harness uses seed 0 / shard 0 for local runs, campaign
// workers use the suite hash and their shard index, and the coordinator
// uses shard -1 for its control-plane trace. Returns nil (the no-op
// tracer) when j is nil — spans only exist as journal events.
func NewTracer(j *Journal, seed uint64, shard int) *Tracer {
	if j == nil {
		return nil
	}
	id := splitmix64(seed ^ splitmix64(uint64(int64(shard))+0x9e3779b97f4a7c15))
	return &Tracer{j: j, trace: fmt.Sprintf("%016x", id)}
}

// Derive returns a tracer on the same journal whose trace ID is a pure
// function of this trace and key: a trace per unit of work (a system in a
// sweep, a fuzz round) keeps reused workload names from sharing span IDs.
func (t *Tracer) Derive(key string) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{j: t.j, trace: t.ID("trace", key, 0, 0)}
}

// Emit appends a non-span event (run, violation, quarantine) to the
// tracer's journal; a nil tracer discards it.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.j.Emit(e)
}

// Enabled reports whether spans land anywhere.
func (t *Tracer) Enabled() bool { return t != nil }

// Trace returns the trace ID ("" when disabled).
func (t *Tracer) Trace() string {
	if t == nil {
		return ""
	}
	return t.trace
}

// Begin returns the current time when the tracer is enabled and the zero
// time otherwise — pair with Span so a disabled tracer never reads the
// clock (mirrors Collector.Start).
func (t *Tracer) Begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// ID derives the span ID for the given deterministic coordinates: span
// name, workload name, fence ordinal, and rank (canonical subset rank, or
// a call index for wire spans). Callers use it both to stamp a span and to
// pre-compute a parent ID before the parent span itself is emitted —
// parents are emitted at completion, after their children.
func (t *Tracer) ID(name, workload string, fence, rank int) string {
	if t == nil {
		return ""
	}
	h := fnv.New64a()
	var frame [8]byte
	h.Write([]byte(t.trace))
	h.Write([]byte{0})
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(workload))
	binary.LittleEndian.PutUint64(frame[:], uint64(int64(fence)))
	h.Write(frame[:])
	binary.LittleEndian.PutUint64(frame[:], uint64(int64(rank)))
	h.Write(frame[:])
	return fmt.Sprintf("%016x", h.Sum64())
}

// Span emits one completed span as a "span" journal event and returns its
// span ID. The event's Workload, Fence, and Rank fields are both
// attribution AND span-ID coordinates, so callers set them before the
// call; name is the span's class ("workload", "oracle", "fence",
// "wire:heartbeat", ...). start comes from Begin: Time is set to the
// span's start and DurNanos to its measured duration (a zero start leaves
// both for Emit to default). parent is the enclosing span's ID ("" for a
// trace root).
func (t *Tracer) Span(name string, start time.Time, parent string, e Event) string {
	if t == nil {
		return ""
	}
	e.Type = "span"
	e.Name = name
	e.Trace = t.trace
	e.Span = t.ID(name, e.Workload, e.Fence, e.Rank)
	e.Parent = parent
	if !start.IsZero() {
		e.Time = start
		e.DurNanos = time.Since(start).Nanoseconds()
	}
	t.j.Emit(e)
	return e.Span
}

// splitmix64 is the standard 64-bit finalizer (Vigna): a cheap, well-mixed
// bijection, good enough to spread (seed, shard) pairs into distinct trace
// IDs deterministically.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
