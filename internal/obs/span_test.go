package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestTracerDeterministicIDs pins the span determinism contract: trace and
// span IDs are pure functions of their coordinates — two tracers built from
// the same (seed, shard) agree on every ID, and changing any coordinate
// changes the ID.
func TestTracerDeterministicIDs(t *testing.T) {
	j1, j2 := NewJournal(&bytes.Buffer{}), NewJournal(&bytes.Buffer{})
	a := NewTracer(j1, 42, 7)
	b := NewTracer(j2, 42, 7)
	if a.Trace() == "" || a.Trace() != b.Trace() {
		t.Fatalf("trace IDs diverge: %q vs %q", a.Trace(), b.Trace())
	}
	if a.ID("check", "wl", 1, 2) != b.ID("check", "wl", 1, 2) {
		t.Fatal("span IDs diverge for identical coordinates")
	}
	base := a.ID("check", "wl", 1, 2)
	for _, other := range []string{
		a.ID("fence", "wl", 1, 2),
		a.ID("check", "wl2", 1, 2),
		a.ID("check", "wl", 3, 2),
		a.ID("check", "wl", 1, 4),
		NewTracer(j1, 42, 8).ID("check", "wl", 1, 2),
		NewTracer(j1, 43, 7).ID("check", "wl", 1, 2),
	} {
		if other == base {
			t.Fatalf("distinct coordinates collided on %q", base)
		}
	}
}

// TestTracerSpanEvent: Span emits a well-formed "span" journal event whose
// ID matches ID() for the same coordinates, stamps start/duration, and the
// canonical key (wall-clock cleared) is reproducible.
func TestTracerSpanEvent(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	tr := NewTracer(j, 1, 0)

	parent := tr.ID("workload", "wl", 0, 0)
	start := tr.Begin()
	id := tr.Span("check", start, parent, Event{Workload: "wl", FS: "memfs"})
	if id != tr.ID("check", "wl", 0, 0) {
		t.Fatalf("Span returned %q, ID derives %q", id, tr.ID("check", "wl", 0, 0))
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}

	events, skipped, err := ReadJournal(&buf)
	if err != nil || skipped != 0 || len(events) != 1 {
		t.Fatalf("read: %d events, %d skipped, err %v", len(events), skipped, err)
	}
	e := events[0]
	if e.Type != "span" || e.Name != "check" || e.Trace != tr.Trace() ||
		e.Span != id || e.Parent != parent || e.Workload != "wl" || e.FS != "memfs" {
		t.Fatalf("span event = %+v", e)
	}
	if e.Time.IsZero() || e.DurNanos < 0 {
		t.Fatalf("span timing not stamped: %+v", e)
	}

	// Canonical key clears wall-clock fields, so two emissions of the same
	// span coordinates have equal keys.
	var buf2 bytes.Buffer
	j2 := NewJournal(&buf2)
	tr2 := NewTracer(j2, 1, 0)
	time.Sleep(time.Millisecond)
	tr2.Span("check", tr2.Begin(), parent, Event{Workload: "wl", FS: "memfs"})
	j2.Flush()
	events2, _, _ := ReadJournal(&buf2)
	if events[0].CanonicalKey() != events2[0].CanonicalKey() {
		t.Fatalf("canonical keys diverge:\n%s\n%s",
			events[0].CanonicalKey(), events2[0].CanonicalKey())
	}
}

// TestTracerZeroStart: a zero start time (what a disabled Begin returns)
// leaves Time for Emit to stamp and DurNanos zero — spans never invent
// durations they did not measure.
func TestTracerZeroStart(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	tr := NewTracer(j, 0, 0)
	tr.Span("wire:lease", time.Time{}, "", Event{Rank: 3})
	j.Flush()
	events, _, _ := ReadJournal(&buf)
	if len(events) != 1 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0].DurNanos != 0 {
		t.Fatalf("zero-start span has duration %d", events[0].DurNanos)
	}
	if events[0].Time.IsZero() {
		t.Fatal("Emit did not stamp Time")
	}
}

// TestNewTracerNilJournal: no journal means no tracer — the nil no-op.
func TestNewTracerNilJournal(t *testing.T) {
	if tr := NewTracer(nil, 1, 2); tr != nil {
		t.Fatalf("NewTracer(nil) = %v, want nil", tr)
	}
	var tr *Tracer
	if got := tr.Span("x", time.Now(), "", Event{}); got != "" {
		t.Fatalf("nil Span = %q", got)
	}
	if got := tr.ID("x", "y", 0, 0); got != "" {
		t.Fatalf("nil ID = %q", got)
	}
}

// TestTraceIDFormat: trace and span IDs are 16 lowercase hex digits —
// stable enough to grep and to key maps in the timeline tooling.
func TestTraceIDFormat(t *testing.T) {
	j := NewJournal(&bytes.Buffer{})
	tr := NewTracer(j, 0, -1) // the coordinator's control-plane shard
	for _, id := range []string{tr.Trace(), tr.ID("shard-lease", "", 0, 5)} {
		if len(id) != 16 || strings.ToLower(id) != id {
			t.Fatalf("ID %q not 16 lowercase hex digits", id)
		}
	}
}

// TestTracerDeriveAndEmit: a derived trace is a pure function of (trace,
// key), distinct from its parent and its siblings, and writes to the same
// journal; Emit passes non-span events through. Both are no-ops on nil.
func TestTracerDeriveAndEmit(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	tr := NewTracer(j, 0, 0)
	a, b := tr.Derive("nova"), tr.Derive("pmfs")
	if a.Trace() != NewTracer(j, 0, 0).Derive("nova").Trace() {
		t.Fatal("derived trace IDs diverge for one key")
	}
	if a.Trace() == tr.Trace() || a.Trace() == b.Trace() || a.ID("workload", "wl", 0, 0) == b.ID("workload", "wl", 0, 0) {
		t.Fatalf("derived traces collide: parent %s, %s, %s", tr.Trace(), a.Trace(), b.Trace())
	}
	a.Span("workload", time.Time{}, "", Event{Workload: "wl"})
	b.Emit(Event{Type: "violation", Workload: "wl"})
	var off *Tracer
	off.Emit(Event{Type: "violation"})
	if off.Derive("nova") != nil {
		t.Fatal("nil tracer derived a live one")
	}
	j.Flush()
	events, _, _ := ReadJournal(&buf)
	if len(events) != 2 || events[0].Trace != a.Trace() || events[1].Type != "violation" || events[1].Trace != "" {
		t.Fatalf("events = %+v", events)
	}
}
