// Package lease is the one mechanism the distributed modes share: hand a
// unit of work out, take it back at most once, survive a dead worker. Suite
// shards (internal/campaign), fuzz rounds and minimization tasks
// (internal/fleet) are three unit families over the same pieces — the slot
// Table, the checkpoint Log, the wire gate and client, the worker's unit
// runner, and the coordinator Shell around the tables — and differ only in
// policy, which stays with the owner: which pending unit goes out next, and
// what a unit that spent its attempts means.
//
// The package imports neither owner, and nothing in it calls back into an
// owner while holding the owner's lock: the Table takes no lock at all, and
// an owner mutates it under the Shell's mutex, reads what happened from the
// return value, and applies its own policy.
package lease

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"time"
)

// DefaultTTL is how long a worker holds a unit before the coordinator
// assumes it died and re-dispatches. With heartbeats extending live leases,
// an expiry means the worker is actually gone, so the TTL can stay
// conservative without losing long units.
const DefaultTTL = 2 * time.Minute

// DefaultRetries is how many failed dispatch attempts (lease expiry,
// structured error payload, rejected result) a unit gets before it is spent
// instead of re-dispatched.
const DefaultRetries = 3

// CauseExpired is the cause Expire books against a unit whose lease ran out.
const CauseExpired = "lease expired (worker gone or stalled)"

// State is a unit's place in the machine:
//
//	Pending -> Leased(worker, deadline) -> Done | Spent
//
// with Leased -> Pending on every failed attempt short of the budget.
type State uint8

const (
	Pending State = iota
	Leased
	// Done: the first healthy result was accepted. Terminal.
	Done
	// Spent: the attempt budget ran out. Terminal; what it means — a
	// quarantine ledger entry, a dropped round, an unverified minimization —
	// is the owner's policy.
	Spent
)

// Slot is one unit's lease record.
type Slot struct {
	State    State
	Worker   string
	Deadline time.Time
	// LeasedAt stamps the current grant and LastBeat its most recent
	// heartbeat; Progress is the live count that heartbeat piggybacked. All
	// three are reset on each grant.
	LeasedAt time.Time
	LastBeat time.Time
	Progress int
	// Attempts counts failed dispatch attempts. LastErr is the one the
	// owner's ledger will cite and ErrWorker the worker it happened on;
	// ErrFromWorker says it came from a worker's error payload (see Fail).
	Attempts      int
	LastErr       string
	ErrWorker     string
	ErrFromWorker bool
}

// Counters is the control-plane history of one coordinator. Tables that
// belong to the same coordinator share one.
type Counters struct {
	Granted      int // leases handed out, re-grants included
	Redispatched int // failed attempts that put a unit back in the queue
	Duplicates   int // healthy results discarded by at-most-once crediting
	Rejected     int // requests refused for a foreign fingerprint or identity
	BadPayloads  int // result bodies rejected at the wire
	Heartbeats   int // granted lease extensions
	// PerWorker counts accepted results per worker ID; Workers maps worker ID
	// to the last moment it was heard from (lease, heartbeat, or result).
	PerWorker map[string]int
	Workers   map[string]time.Time
}

// Foreign counts a request whose fingerprint is not the coordinator's and
// renders the refusal. what names the fingerprint ("suite", "spec").
func (c *Counters) Foreign(what, have, worker, got, consequence string) error {
	c.Rejected++
	return fmt.Errorf("%s fingerprint mismatch: coordinator has %s, worker %q sent %s — %s",
		what, have, worker, got, consequence)
}

// Snapshot copies the counters, maps included, for a stats value that
// outlives the owner's lock.
func (c *Counters) Snapshot() Counters {
	s := *c
	s.PerWorker, s.Workers = maps.Clone(c.PerWorker), maps.Clone(c.Workers)
	return s
}

// WorkerStatus is one worker's liveness row on a status page.
type WorkerStatus struct {
	ID string `json:"id"`
	// LastSeenSec is the age of the worker's most recent lease, heartbeat,
	// or result.
	LastSeenSec float64 `json:"last_seen_sec"`
	ShardsDone  int     `json:"shards_done"`
}

// WorkerStatuses renders the liveness rows, sorted by worker ID.
func (c *Counters) WorkerStatuses(now time.Time) []WorkerStatus {
	var out []WorkerStatus
	for id, seen := range c.Workers {
		out = append(out, WorkerStatus{ID: id, LastSeenSec: now.Sub(seen).Seconds(), ShardsDone: c.PerWorker[id]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Report renders a coordinator's stats summary: head and the counters on
// one line (resumed is the units credited from the checkpoint), each
// nonempty note, then each worker's credits in unit, sorted by worker ID.
func (c *Counters) Report(head string, resumed int, unit string, notes ...string) string {
	lines := []string{fmt.Sprintf("%s (%d resumed from checkpoint, %d re-dispatched, %d duplicates discarded, %d rejected, %d bad payloads, %d heartbeats)",
		head, resumed, c.Redispatched, c.Duplicates, c.Rejected, c.BadPayloads, c.Heartbeats)}
	for _, n := range notes {
		if n != "" {
			lines = append(lines, "  "+n)
		}
	}
	workers := make([]string, 0, len(c.PerWorker))
	for w := range c.PerWorker {
		workers = append(workers, w)
	}
	sort.Strings(workers)
	for _, w := range workers {
		lines = append(lines, fmt.Sprintf("  %-20s %d %s", w, c.PerWorker[w], unit))
	}
	return strings.Join(lines, "\n")
}

// Table is a passive table of lease slots, indexed by unit id.
type Table struct {
	TTL     time.Duration
	Retries int
	Slots   []Slot
	// Resumed counts the units credited from a checkpoint (Resume) rather
	// than by a worker of this run.
	Resumed int
	*Counters
}

// NewTable builds a table of n pending units. ttl and retries default to
// DefaultTTL and DefaultRetries when not positive.
func NewTable(n int, ttl time.Duration, retries int, ctr *Counters) *Table {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	if retries <= 0 {
		retries = DefaultRetries
	}
	return &Table{TTL: ttl, Retries: retries, Slots: make([]Slot, n), Counters: ctr}
}

// NewCounters returns zeroed counters with their maps made.
func NewCounters() *Counters {
	return &Counters{PerWorker: map[string]int{}, Workers: map[string]time.Time{}}
}

// Grow appends n pending units.
func (t *Table) Grow(n int) { t.Slots = append(t.Slots, make([]Slot, n)...) }

// Count returns how many units are in state s.
func (t *Table) Count(s State) int {
	n := 0
	for i := range t.Slots {
		if t.Slots[i].State == s {
			n++
		}
	}
	return n
}

// Open returns how many units are still owed a terminal state.
func (t *Table) Open() int { return t.Count(Pending) + t.Count(Leased) }

// First returns the lowest unit in state s, or -1.
func (t *Table) First(s State) int {
	for i := range t.Slots {
		if t.Slots[i].State == s {
			return i
		}
	}
	return -1
}

// HeldBy returns the unit currently leased to worker, or -1. A worker only
// asks for work when it believes it holds none, so a hit means its lease
// response was lost, duplicated or discarded as corrupt: the owner re-grants
// the same unit (Grant) instead of stranding it until the TTL and booking a
// failed attempt against a healthy unit. Call after Expire, so a lease that
// really ran out is accounted, not renewed.
func (t *Table) HeldBy(worker string) int {
	for i := range t.Slots {
		if t.Slots[i].State == Leased && t.Slots[i].Worker == worker {
			return i
		}
	}
	return -1
}

// Resume marks unit i done from a checkpoint record of worker's result; the
// per-worker counts credit it to "checkpoint".
func (t *Table) Resume(i int, worker string) {
	t.Slots[i] = Slot{State: Done, Worker: worker}
	t.Resumed++
	t.PerWorker["checkpoint"]++
}

// Grant leases unit i to worker until now+TTL.
func (t *Table) Grant(i int, worker string, now time.Time) {
	s := &t.Slots[i]
	s.State, s.Worker = Leased, worker
	s.Deadline, s.LeasedAt, s.LastBeat = now.Add(t.TTL), now, now
	s.Progress = 0
	t.Granted++
}

// Fail books one failed dispatch attempt against unit i and either puts it
// back in the queue or, once the budget is spent, retires it (spent).
//
// Which attempt the owner's ledger cites: a transport cause — the lease ran
// out, the result was rejected at the wire — says only that the attempt was
// lost, while a worker's error payload (fromWorker) says the unit itself
// failed under a live worker. So a payload's cause is never replaced by a
// later transport one; otherwise the latest attempt wins. Which of a
// poisoned unit's attempts happened to lose its payload to wire noise then
// does not decide what the ledger says.
func (t *Table) Fail(i int, worker string, fromWorker bool, cause string) (spent bool) {
	s := &t.Slots[i]
	s.Attempts++
	if fromWorker || !s.ErrFromWorker {
		s.LastErr, s.ErrWorker, s.ErrFromWorker = cause, worker, fromWorker
	}
	if s.Attempts >= t.Retries {
		s.State = Spent
		return true
	}
	s.State = Pending
	t.Redispatched++
	return false
}

// Expire fails every lease whose deadline passed before now, citing
// CauseExpired, and returns the units it touched; each is now Pending or
// Spent. With heartbeats extending live leases, an expiry means the worker is
// gone.
func (t *Table) Expire(now time.Time) []int {
	var expired []int
	for i := range t.Slots {
		if s := &t.Slots[i]; s.State == Leased && now.After(s.Deadline) {
			t.Fail(i, s.Worker, false, CauseExpired)
			expired = append(expired, i)
		}
	}
	return expired
}

// Outcome is what Settle or Reject did with a result.
type Outcome uint8

const (
	// Accepted: the first healthy result for the unit; it is now Done.
	Accepted Outcome = iota
	// Duplicate: the unit is already Done. The two payloads are
	// byte-identical by the determinism contract, but counting both would
	// double-credit the unit, so this one is discarded.
	Duplicate
	// Discarded: a healthy result for a Spent unit. The owner's ledger says
	// the unit went unfinished, and a unit is never both; discarded.
	Discarded
	// Stale: an error payload or rejected body whose claimed (unit, worker)
	// is not a live lease — that attempt was already counted when the lease
	// expired, or the identity is itself corrupt. Nothing moved.
	Stale
	// Failed: one failed attempt was booked (see Fail); the unit is now
	// Pending or Spent.
	Failed
)

// Settle takes a result for unit i from worker: a healthy one when failure is
// empty, else a structured error payload — engine error, contained panic,
// tripped watchdog — citing it.
func (t *Table) Settle(i int, worker, failure string, now time.Time) Outcome {
	s := &t.Slots[i]
	if failure != "" {
		if s.State != Leased || s.Worker != worker {
			return Stale
		}
		t.Fail(i, worker, true, failure)
		return Failed
	}
	switch s.State {
	case Spent:
		t.Duplicates++
		return Discarded
	case Done:
		t.Duplicates++
		return Duplicate
	}
	s.State, s.Worker = Done, worker
	t.PerWorker[worker]++
	t.Workers[worker] = now
	return Accepted
}

// Beat extends unit i's lease for its holder and records the progress the
// heartbeat piggybacked. It refuses (false) a stranger, a unit no longer
// leased, and a lease already past its deadline: the worker should abandon
// the unit rather than burn compute on a result that would be discarded.
func (t *Table) Beat(i int, worker string, progress int, now time.Time) bool {
	t.Workers[worker] = now
	s := &t.Slots[i]
	if s.State != Leased || s.Worker != worker || now.After(s.Deadline) {
		return false
	}
	s.Deadline, s.LastBeat = now.Add(t.TTL), now
	if progress > s.Progress {
		s.Progress = progress
	}
	t.Heartbeats++
	return true
}

// Reject books a result body refused at the wire (truncated, corrupt,
// checksum mismatch). When the claimed (unit, worker) matches a live lease it
// is a failed attempt, so the unit is re-dispatched promptly instead of
// waiting out the lease; when the identity is itself implausible only the
// bad-payload counter moves, and lease expiry covers the unit.
func (t *Table) Reject(i int, worker, cause string) Outcome {
	t.BadPayloads++
	if i < 0 || i >= len(t.Slots) {
		return Stale
	}
	if s := &t.Slots[i]; s.State != Leased || s.Worker != worker {
		return Stale
	}
	t.Fail(i, worker, false, cause)
	return Failed
}
