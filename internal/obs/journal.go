package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Event is one run-journal record: an append-only, self-describing JSONL
// line. The journal records WHAT the pipeline did — one span per engine
// stage (workload, oracle, record, check, fence) and one event per
// violation and quarantine — with timestamps and state digests, so a run
// can be post-mortemed or diffed without rerunning it.
//
// Determinism contract: with Time and DurNanos cleared (CanonicalKey), the
// multiset of events a suite produces is a pure function of the suite and
// configuration — identical between serial and parallel runs. Wall-clock
// fields are measurements, not identity.
type Event struct {
	// Time is when the event was emitted (filled by Emit when zero).
	Time time.Time `json:"t"`
	// Type is the event class: "run", "violation", "quarantine", "span"
	// (see Tracer; an engine stage's one record, its counts included), or
	// the campaign-side diagnostics "shard-quarantine",
	// "heartbeat-refused", and "shard-watchdog".
	Type string `json:"type"`
	// FS names the system under test; Workload the workload involved.
	FS       string `json:"fs,omitempty"`
	Workload string `json:"workload,omitempty"`
	// Fence is the 1-based fence ordinal (0 = post-syscall, no fence);
	// Sys the implicated syscall index (-1 = none); Rank the state's
	// canonical subset rank; Phase the crash phase rendering.
	Fence int    `json:"fence,omitempty"`
	Sys   int    `json:"sys"`
	Rank  int    `json:"rank"`
	Phase string `json:"phase,omitempty"`
	// InFlight is a fence span's in-flight write count; States the
	// distinct crash states checked under the span; Deduped how many
	// subsets were skipped as byte-identical.
	InFlight int `json:"inflight,omitempty"`
	States   int `json:"states,omitempty"`
	Deduped  int `json:"deduped,omitempty"`
	// Fences/Violations summarize a "workload" or "shard" span.
	Fences     int `json:"fences,omitempty"`
	Violations int `json:"violations,omitempty"`
	// Kind classifies violation/quarantine events (ViolationKind string).
	Kind string `json:"kind,omitempty"`
	// StateKey is the hex FNV-64a digest of the implicated crash state's
	// byte-diff identity (quarantine events).
	StateKey string `json:"state_key,omitempty"`
	// Detail is a one-line human-readable cause.
	Detail string `json:"detail,omitempty"`
	// Name, Trace, Span, and Parent describe "span" events (see Tracer):
	// the span's class, its trace, its own deterministic ID, and its
	// enclosing span ("" for a trace root).
	Name   string `json:"name,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Span   string `json:"span,omitempty"`
	Parent string `json:"parent,omitempty"`
	// Worker attributes campaign-side events (heartbeat-refused,
	// shard-watchdog, shard-lease spans) to a worker ID.
	Worker string `json:"worker,omitempty"`
	// Prefix is the canonical trace prefix of a violation event: the
	// workload's op renderings up to and including the implicated syscall.
	// A pure function of the workload, it is the clustering key
	// journaltool -triage groups violations by (with Kind and FS).
	Prefix string `json:"prefix,omitempty"`
	// DurNanos is a span's measured duration (0 when it measured none).
	DurNanos int64 `json:"dur_ns,omitempty"`
}

// CanonicalKey renders the event with its wall-clock fields (Time,
// DurNanos) cleared — the identity the journal determinism contract is
// stated over. Two runs of the same suite produce equal multisets of
// canonical keys regardless of worker count.
func (e Event) CanonicalKey() string {
	e.Time = time.Time{}
	e.DurNanos = 0
	b, err := json.Marshal(e)
	if err != nil {
		// Event is a plain struct of marshalable fields; this cannot
		// happen, but never let the determinism check panic.
		return fmt.Sprintf("unmarshalable: %v", err)
	}
	return string(b)
}

// Journal is an append-only JSONL event stream. Emit is safe for
// concurrent use from worker goroutines; a nil *Journal discards events
// without allocating, so call sites need no guards.
type Journal struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	closer io.Closer
	err    error // first write error, surfaced by Close
	events int64
}

// Create opens (truncating) a journal file at path.
func Create(path string) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: journal: %w", err)
	}
	j := NewJournal(f)
	j.closer = f
	return j, nil
}

// NewJournal wraps an arbitrary writer (tests, in-memory buffers).
func NewJournal(w io.Writer) *Journal {
	return &Journal{bw: bufio.NewWriter(w)}
}

// Emit appends one event, stamping Time if the caller left it zero.
// Write errors are sticky and reported by Close — observability must never
// fail the pipeline mid-run.
func (j *Journal) Emit(e Event) {
	if j == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	line, err := json.Marshal(e)
	if err != nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if _, err := j.bw.Write(line); err != nil {
		j.err = err
		return
	}
	if err := j.bw.WriteByte('\n'); err != nil {
		j.err = err
		return
	}
	j.events++
}

// Events reports how many events were appended.
func (j *Journal) Events() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.events
}

// Flush forces buffered events to the underlying writer.
func (j *Journal) Flush() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == nil {
		j.err = j.bw.Flush()
	}
	return j.err
}

// Close flushes and closes the journal, returning the first error any
// write hit.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	err := j.Flush()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closer != nil {
		if cerr := j.closer.Close(); err == nil {
			err = cerr
		}
		j.closer = nil
	}
	return err
}

// maxJournalLine bounds one journal line during reads; violation details
// are first-line-truncated at emit time, so 1 MiB is generous.
const maxJournalLine = 1 << 20

// ReadJournal parses a JSONL journal tolerantly: blank lines are ignored
// and truncated or corrupt lines are skipped and counted, never fatal — a
// journal from a crashed or killed run must still summarize. The error
// return reports I/O failures only.
func ReadJournal(r io.Reader) (events []Event, skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxJournalLine)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Event
		if json.Unmarshal(line, &e) != nil || e.Type == "" {
			skipped++
			continue
		}
		events = append(events, e)
	}
	return events, skipped, sc.Err()
}

// ReadJournalFile reads the journal at path with ReadJournal's tolerance.
func ReadJournalFile(path string) (events []Event, skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("obs: journal: %w", err)
	}
	defer f.Close()
	return ReadJournal(f)
}
