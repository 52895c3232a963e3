// Package obs is Chipmunk's observability layer: per-stage metrics, an
// append-only run journal, and a live-introspection HTTP server. The paper's
// §6.3 evaluation rests on knowing where testing time goes — crash-state
// *checking* dominates wall-clock, which justifies the replay cap and the
// dedup design — and Vinter and Yat both publish per-phase trace/replay
// statistics. This package makes those numbers first-class instead of
// ad-hoc benchmark metrics.
//
// Everything here is compiled in but off by default, and nil-safe by
// construction: a nil *Collector (and a nil *Journal) is a no-op sink with
// zero allocations on the hot path, so the engine threads calls through
// unconditionally and pays only a nil check when observability is disabled.
// The package depends on the standard library alone.
//
// Concurrency model: the Collector is a bag of atomics — stage duration
// histograms and monotonic counters — safe to record into from any
// goroutine without locks. Each engine run records into its own Collector
// and publishes an immutable Snapshot on its Result; the harness merges
// those snapshots on the coordinator, so serial and parallel runs of the
// same suite produce identical counter totals (durations are wall-clock
// facts and naturally vary with scheduling).
package obs

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// Stage identifies one timed phase of the crash-consistency pipeline. The
// stages are disjoint — no stage's interval contains another's — so their
// total durations can be summed and compared against wall-clock.
type Stage uint8

const (
	// StageOracle is the oracle pass: running the workload on the
	// reference model and capturing the observable state per call.
	StageOracle Stage = iota
	// StageRecord is the record pass: running the workload on the target
	// with the persistence-function trace attached.
	StageRecord
	// StageDedup is subset enumeration plus byte-diff state dedup at a
	// fence (coordinator-side, before any checking).
	StageDedup
	// StageReplay is materializing one crash image: base bytes plus the
	// replayed in-flight subset (and injected faults, when enabled).
	StageReplay
	// StageMount is mounting the target file system on a crash image.
	StageMount
	// StageCheck is the post-mount consistency checking of one crash
	// state: state capture, oracle comparison, usability probe. Mounting
	// is deliberately excluded (it is StageMount).
	StageCheck
	numStages
)

var stageNames = [numStages]string{
	StageOracle: "oracle",
	StageRecord: "record",
	StageDedup:  "dedup",
	StageReplay: "replay",
	StageMount:  "mount",
	StageCheck:  "check",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", uint8(s))
}

// Counter identifies one monotonic event counter. Most counters are pure
// functions of the checked suite — never of scheduling — so a serial and a
// parallel run of the same suite report identical values; Deterministic
// distinguishes those from the measurement-class counters (fault and
// materialization accounting), which are recorded as the work happens and
// may vary with abandoned checks and pool scheduling.
type Counter uint8

const (
	// CtrWorkloads counts completed engine runs.
	CtrWorkloads Counter = iota
	// CtrFences counts store fences encountered during replay walks.
	CtrFences
	// CtrStatesChecked counts crash states whose check reached a
	// classified outcome.
	CtrStatesChecked
	// CtrDedupHits counts crash states skipped because their image was
	// byte-identical to one already checked at the same crash point.
	CtrDedupHits
	// CtrTruncatedFences counts fences whose exhaustive enumeration fell
	// back to the safety cap.
	CtrTruncatedFences
	// CtrSandboxRetries is never recorded: each crash state gets exactly
	// one guarded attempt.
	//
	// Deprecated: always zero; kept because the bench module reads it.
	CtrSandboxRetries
	// CtrQuarantines counts crash states quarantined after deterministic
	// sandbox failures (including ledger-cap overflow).
	CtrQuarantines
	// CtrFaultsInjected counts injected pmem faults that actually landed:
	// torn writes, flipped bits, and raised media errors. Unlike the other
	// counters it is recorded as faults land, not from the Result, so a
	// state abandoned past its deadline counts only the faults it met
	// before the takeover.
	CtrFaultsInjected
	// CtrViolations counts reported violations (including suppressed
	// overflow).
	CtrViolations
	// CtrImagePrimes is never recorded: crash states are mounted on the
	// walk's working image, which no copy has to catch up with.
	//
	// Deprecated: always zero; kept because the bench module reads it.
	CtrImagePrimes
	// CtrImagesRetired counts working-image repairs: a check that was
	// abandoned (timeout, cancellation) or poisoned the image (guest panic,
	// media error) has it rebuilt from the post-Mkfs template and the
	// fences' writes instead of rolled back — in a fresh buffer when
	// abandoned. Measurement-class like CtrFaultsInjected.
	CtrImagesRetired
	// CtrSandboxRunners counts check-sandbox runner goroutines started: one
	// per engine run that reaches a guest check, plus one per takeover after
	// a timed-out check (never one per crash state). Measurement-class.
	CtrSandboxRunners
	// CtrBytesMaterialized counts bytes copied applying crash-state deltas
	// (replayed subset writes and flipped bytes) onto the working image. Per-state this scales
	// with the subset's span size, never with the device size — the O(diff)
	// claim BenchmarkMaterializeState asserts. Measurement-class.
	CtrBytesMaterialized
	// CtrBytesPrimed is never recorded, like CtrImagePrimes.
	//
	// Deprecated: always zero; kept because the bench module reads it.
	CtrBytesPrimed
	// CtrBytesRolledBack counts bytes the undo log restores returning the
	// working image to its base after a check: the guest's writes and the
	// state's delta together. Measurement-class.
	CtrBytesRolledBack
	// CtrShardsQuarantined counts campaign shards the coordinator moved to
	// the shard-quarantine ledger after exhausting their dispatch attempts.
	// Measurement-class: infrastructure failures, not a function of the
	// suite — a degraded census must stay fingerprint-comparable to a clean
	// serial run over the same shards.
	CtrShardsQuarantined
	// CtrSpansCoalesced counts raw write spans merged away when the engine
	// coalesces a crash-state subset's adjacent/overlapping byte intervals
	// into maximal runs before keying and materialization. Coordinator-only
	// (recorded during dedup enumeration), so deterministic: a pure function
	// of the checked suite, identical across worker counts.
	CtrSpansCoalesced
	// CtrOracleSnapshotHits counts crash-state checks served by a shared
	// per-crash-point oracle snapshot instead of re-deriving the
	// oracle-visible view per check. Measurement-class like
	// CtrFaultsInjected: recorded inside the guest phase, so a check
	// abandoned past its deadline may or may not have counted its hit.
	CtrOracleSnapshotHits
	// CtrFuzzExecs counts fuzzing iterations (engine runs driven by the
	// coverage-guided mutator) credited by a fleet-fuzzing coordinator.
	// Measurement-class: a duration-budgeted soak credits however many
	// rounds wall-clock allowed, so the value is progress, not contract.
	CtrFuzzExecs
	// CtrCorpusEntries counts workloads admitted to the global fuzzing
	// corpus (each carried a syscall-coverage signature not yet seen).
	CtrCorpusEntries
	// CtrCoverageEdges counts distinct syscall-coverage signatures in the
	// global corpus — the union of admitted entries' signature sets.
	CtrCoverageEdges
	// CtrDistinctBugs counts deduplicated violation clusters in the fleet
	// bug census: distinct (kind, FS, trace prefix) triples.
	CtrDistinctBugs
	// CtrMemoServed counts crash states whose verdict a run took from its
	// prefix memo (core.PrefixMemo) instead of checking them: they are also
	// counted in CtrStatesChecked. Measurement-class: which member of a
	// shared prefix checks it and which are served depends on the order
	// workloads complete in.
	CtrMemoServed
	// CtrObservationsServed counts crash states judged from the memo's
	// observation table without a mount: a run of the memo had mounted the
	// same image. Measurement-class like CtrMemoServed.
	CtrObservationsServed
	// CtrObservationsShared counts crash states whose recovered state the
	// memo had already seen on another image, so observing them copied
	// nothing. Measurement-class like CtrMemoServed: it stops growing once
	// the table's bound fills.
	CtrObservationsShared
	// CtrMkfs counts guest Mkfs calls in record passes, and CtrOpsRecorded
	// the ops the guest ran in them: a run that forks at an op prefix
	// formats nothing and runs only its suffix. Measurement-class: which
	// runs share a prefix depends on how the suite is cut over workers.
	CtrMkfs
	CtrOpsRecorded
	numCounters
)

var counterNames = [numCounters]string{
	CtrWorkloads:       "workloads",
	CtrFences:          "fences",
	CtrStatesChecked:   "states-checked",
	CtrDedupHits:       "dedup-hit",
	CtrTruncatedFences: "truncated-fences",
	CtrSandboxRetries:  "sandbox-retry",
	CtrQuarantines:     "quarantine",
	CtrFaultsInjected:  "fault-injected",
	CtrViolations:      "violations",

	CtrImagePrimes:       "image-primes",
	CtrImagesRetired:     "images-retired",
	CtrSandboxRunners:    "sandbox-runners",
	CtrBytesMaterialized: "bytes-materialized",
	CtrBytesPrimed:       "bytes-primed",
	CtrBytesRolledBack:   "bytes-rolled-back",

	CtrShardsQuarantined:  "shards-quarantined",
	CtrSpansCoalesced:     "spans-coalesced",
	CtrOracleSnapshotHits: "oracle-snapshot-hits",

	CtrFuzzExecs:     "fuzz-execs",
	CtrCorpusEntries: "corpus-entries",
	CtrCoverageEdges: "coverage-edges",
	CtrDistinctBugs:  "distinct-bugs",

	CtrMemoServed:         "memo-served",
	CtrObservationsServed: "observations-served",
	CtrObservationsShared: "observations-shared",
	CtrMkfs:               "mkfs",
	CtrOpsRecorded:        "ops-recorded",
}

func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return fmt.Sprintf("Counter(%d)", uint8(c))
}

// Deterministic reports whether the counter is covered by the engine's
// serial == parallel determinism contract (its value is a pure function of
// the checked suite). The measurement-class counters — fault injection and
// crash-image materialization accounting — are recorded on the hot path, so
// an abandoned check may have counted part of its work.
func (c Counter) Deterministic() bool {
	switch c {
	case CtrFaultsInjected, CtrImagePrimes, CtrImagesRetired, CtrSandboxRunners,
		CtrBytesMaterialized, CtrBytesPrimed, CtrBytesRolledBack,
		CtrShardsQuarantined, CtrOracleSnapshotHits,
		CtrFuzzExecs, CtrCorpusEntries, CtrCoverageEdges, CtrDistinctBugs,
		CtrMemoServed, CtrObservationsServed, CtrObservationsShared, CtrMkfs, CtrOpsRecorded:
		return false
	}
	return true
}

// histBuckets is the number of log2 duration buckets: bucket i holds
// observations with 2^(i-1) ns <= d < 2^i ns, which spans sub-nanosecond
// to ~18 minutes — wider than any sane per-stage interval.
const histBuckets = 41

// stageRec is the live accumulator for one stage: all atomics, no locks.
type stageRec struct {
	count   atomic.Int64
	nanos   atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// pmRec accumulates the simulated-PM cost-model counters fed from
// pmem.Stats (see pmem.Stats.Feed).
type pmRec struct {
	storeBytes, ntBytes, flushes, linesFlushed, fences, simNanos atomic.Int64
}

// Collector accumulates stage timings and counters for one scope — one
// engine run, or one whole campaign when used as a live merge target. A nil
// *Collector is a valid no-op sink: every method returns immediately
// without allocating.
type Collector struct {
	stages   [numStages]stageRec
	counters [numCounters]atomic.Int64
	pm       pmRec
}

// New returns an empty, enabled collector.
func New() *Collector { return &Collector{} }

// Enabled reports whether records land anywhere.
func (c *Collector) Enabled() bool { return c != nil }

// Start returns the current time when the collector is enabled, and the
// zero time otherwise — pair with ObserveSince so a disabled collector
// never reads the clock.
func (c *Collector) Start() time.Time {
	if c == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records one observation of stage s lasting since start (a
// value obtained from Start). No-op on a nil collector.
func (c *Collector) ObserveSince(s Stage, start time.Time) {
	if c == nil {
		return
	}
	c.Observe(s, time.Since(start))
}

// ExtendSince adds the time since start to stage s without counting an
// observation. No-op on a nil collector.
func (c *Collector) ExtendSince(s Stage, start time.Time) {
	if c == nil {
		return
	}
	c.stages[s].nanos.Add(int64(time.Since(start)))
}

// Observe records one observation of stage s with duration d.
func (c *Collector) Observe(s Stage, d time.Duration) {
	if c == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	rec := &c.stages[s]
	rec.count.Add(1)
	rec.nanos.Add(ns)
	for {
		old := rec.max.Load()
		if ns <= old || rec.max.CompareAndSwap(old, ns) {
			break
		}
	}
	rec.buckets[bucketOf(ns)].Add(1)
}

// bucketOf maps a nanosecond duration to its log2 bucket.
func bucketOf(ns int64) int {
	b := bits.Len64(uint64(ns))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Add increments counter ct by n. No-op on a nil collector.
func (c *Collector) Add(ct Counter, n int64) {
	if c == nil {
		return
	}
	c.counters[ct].Add(n)
}

// Inc increments counter ct by one.
func (c *Collector) Inc(ct Counter) { c.Add(ct, 1) }

// RecordPM accumulates simulated-PM device counters into the collector;
// pmem.Stats.Feed is the canonical caller.
func (c *Collector) RecordPM(storeBytes, ntBytes, flushes, linesFlushed, fences, simNanos int64) {
	if c == nil {
		return
	}
	c.pm.storeBytes.Add(storeBytes)
	c.pm.ntBytes.Add(ntBytes)
	c.pm.flushes.Add(flushes)
	c.pm.linesFlushed.Add(linesFlushed)
	c.pm.fences.Add(fences)
	c.pm.simNanos.Add(simNanos)
}

// StageStat is the frozen view of one stage's accumulator.
type StageStat struct {
	// Count is the number of observations; Nanos their total duration.
	Count int64 `json:"count"`
	Nanos int64 `json:"nanos"`
	// MaxNanos is the longest single observation.
	MaxNanos int64 `json:"max_nanos"`
	// Buckets is the log2 duration histogram: Buckets[i] counts
	// observations with 2^(i-1) ns <= d < 2^i ns.
	Buckets [histBuckets]int64 `json:"buckets"`
}

// Total returns the stage's accumulated duration.
func (st StageStat) Total() time.Duration { return time.Duration(st.Nanos) }

// Avg returns the mean observation duration (0 when empty).
func (st StageStat) Avg() time.Duration {
	if st.Count == 0 {
		return 0
	}
	return time.Duration(st.Nanos / st.Count)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) from the
// log2 histogram: the upper edge of the bucket the quantile falls in.
func (st StageStat) Quantile(q float64) time.Duration {
	if st.Count == 0 {
		return 0
	}
	// Round the target rank UP: the q-quantile must cover at least
	// ceil(q*count) observations, or p99 of two samples would return the
	// smaller one.
	target := int64(q * float64(st.Count))
	if float64(target) < q*float64(st.Count) {
		target++
	}
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, n := range st.Buckets {
		seen += n
		if seen >= target {
			return time.Duration(int64(1) << i)
		}
	}
	return time.Duration(st.MaxNanos)
}

// merge folds other into st.
func (st *StageStat) merge(other StageStat) {
	st.Count += other.Count
	st.Nanos += other.Nanos
	if other.MaxNanos > st.MaxNanos {
		st.MaxNanos = other.MaxNanos
	}
	for i := range st.Buckets {
		st.Buckets[i] += other.Buckets[i]
	}
}

// PMStats is the frozen view of the simulated-PM cost-model counters.
type PMStats struct {
	StoreBytes   int64 `json:"store_bytes"`
	NTBytes      int64 `json:"nt_bytes"`
	Flushes      int64 `json:"flushes"`
	LinesFlushed int64 `json:"lines_flushed"`
	Fences       int64 `json:"fences"`
	SimNanos     int64 `json:"sim_nanos"`
}

// Snapshot is an immutable copy of a collector's state, embeddable in
// results and censuses and renderable by the CLIs. Maps are keyed by the
// Stage/Counter names so the JSON form (served by /debug/vars) is
// self-describing.
type Snapshot struct {
	Stages   map[string]StageStat `json:"stages"`
	Counters map[string]int64     `json:"counters"`
	PM       PMStats              `json:"pm"`
}

// Snapshot freezes the collector's current state. Safe to call while
// workers are still recording (values are read atomically; the snapshot is
// then a consistent-enough live view, exact once recording has stopped).
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		Stages:   make(map[string]StageStat, numStages),
		Counters: make(map[string]int64, numCounters),
	}
	if c == nil {
		return s
	}
	for i := Stage(0); i < numStages; i++ {
		rec := &c.stages[i]
		st := StageStat{
			Count:    rec.count.Load(),
			Nanos:    rec.nanos.Load(),
			MaxNanos: rec.max.Load(),
		}
		for b := range st.Buckets {
			st.Buckets[b] = rec.buckets[b].Load()
		}
		if st.Count > 0 {
			s.Stages[i.String()] = st
		}
	}
	for i := Counter(0); i < numCounters; i++ {
		if v := c.counters[i].Load(); v != 0 {
			s.Counters[i.String()] = v
		}
	}
	s.PM = PMStats{
		StoreBytes:   c.pm.storeBytes.Load(),
		NTBytes:      c.pm.ntBytes.Load(),
		Flushes:      c.pm.flushes.Load(),
		LinesFlushed: c.pm.linesFlushed.Load(),
		Fences:       c.pm.fences.Load(),
		SimNanos:     c.pm.simNanos.Load(),
	}
	return s
}

// Merge folds a snapshot back into a live collector — how per-workload
// engine snapshots reach the campaign-wide collector the debug server
// reads. No-op on a nil collector.
func (c *Collector) Merge(s Snapshot) {
	if c == nil {
		return
	}
	for name, st := range s.Stages {
		for i := Stage(0); i < numStages; i++ {
			if i.String() != name {
				continue
			}
			rec := &c.stages[i]
			rec.count.Add(st.Count)
			rec.nanos.Add(st.Nanos)
			for {
				old := rec.max.Load()
				if st.MaxNanos <= old || rec.max.CompareAndSwap(old, st.MaxNanos) {
					break
				}
			}
			for b, n := range st.Buckets {
				rec.buckets[b].Add(n)
			}
		}
	}
	for name, v := range s.Counters {
		for i := Counter(0); i < numCounters; i++ {
			if i.String() == name {
				c.counters[i].Add(v)
			}
		}
	}
	c.RecordPM(s.PM.StoreBytes, s.PM.NTBytes, s.PM.Flushes, s.PM.LinesFlushed, s.PM.Fences, s.PM.SimNanos)
}

// Merge folds other into s (map-level aggregation, used by the harness
// census and the fuzzer's campaign totals).
func (s *Snapshot) Merge(other Snapshot) {
	if s.Stages == nil {
		s.Stages = make(map[string]StageStat, numStages)
	}
	if s.Counters == nil {
		s.Counters = make(map[string]int64, numCounters)
	}
	for name, st := range other.Stages {
		cur := s.Stages[name]
		cur.merge(st)
		s.Stages[name] = cur
	}
	for name, v := range other.Counters {
		s.Counters[name] += v
	}
	s.PM.StoreBytes += other.PM.StoreBytes
	s.PM.NTBytes += other.PM.NTBytes
	s.PM.Flushes += other.PM.Flushes
	s.PM.LinesFlushed += other.PM.LinesFlushed
	s.PM.Fences += other.PM.Fences
	s.PM.SimNanos += other.PM.SimNanos
}

// DeterministicCounters returns the subset of the snapshot's counters that
// the serial == parallel determinism contract covers — what differential
// tests compare across worker counts. Measurement-class counters
// (fault-injected, the materialization family) are excluded.
func (s *Snapshot) DeterministicCounters() map[string]int64 {
	out := make(map[string]int64)
	if s == nil {
		return out
	}
	for i := Counter(0); i < numCounters; i++ {
		if !i.Deterministic() {
			continue
		}
		if v, ok := s.Counters[i.String()]; ok {
			out[i.String()] = v
		}
	}
	return out
}

// Count returns a counter by enum (0 when absent or s is nil).
func (s *Snapshot) Count(ct Counter) int64 {
	if s == nil {
		return 0
	}
	return s.Counters[ct.String()]
}

// Stage returns a stage's stats by enum (zero value when absent or nil).
func (s *Snapshot) Stage(st Stage) StageStat {
	if s == nil {
		return StageStat{}
	}
	return s.Stages[st.String()]
}

// StageTotal sums every stage's accumulated duration — the number the
// acceptance contract compares against wall-clock for serial runs (stages
// are disjoint intervals).
func (s *Snapshot) StageTotal() time.Duration {
	if s == nil {
		return 0
	}
	var total int64
	for _, st := range s.Stages {
		total += st.Nanos
	}
	return time.Duration(total)
}

// Render formats the per-stage time/count breakdown the -stats flag
// prints. wall is the run's wall-clock duration (0 to omit percentages).
func (s *Snapshot) Render(wall time.Duration) string {
	if s == nil {
		return "obs: no metrics collected\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %12s %14s %12s %12s %8s\n",
		"stage", "count", "total", "avg", "p99", "% wall")
	fmt.Fprintln(&b, strings.Repeat("-", 72))
	for i := Stage(0); i < numStages; i++ {
		st, ok := s.Stages[i.String()]
		if !ok {
			continue
		}
		pct := "-"
		if wall > 0 {
			pct = fmt.Sprintf("%.1f%%", 100*float64(st.Nanos)/float64(wall))
		}
		fmt.Fprintf(&b, "%-8s %12d %14v %12v %12v %8s\n",
			i, st.Count, st.Total().Round(time.Microsecond),
			st.Avg().Round(time.Nanosecond), st.Quantile(0.99), pct)
	}
	total := s.StageTotal()
	if wall > 0 {
		fmt.Fprintf(&b, "%-8s %12s %14v %12s %12s %7.1f%%\n",
			"sum", "", total.Round(time.Microsecond), "", "",
			100*float64(total)/float64(wall))
		fmt.Fprintf(&b, "wall-clock: %v\n", wall.Round(time.Microsecond))
		if sc := s.Count(CtrStatesChecked); sc > 0 {
			fmt.Fprintf(&b, "throughput: %.1f states/sec\n", float64(sc)/wall.Seconds())
		}
	} else {
		fmt.Fprintf(&b, "%-8s %12s %14v\n", "sum", "", total.Round(time.Microsecond))
	}
	var ctrs []string
	for i := Counter(0); i < numCounters; i++ {
		if v, ok := s.Counters[i.String()]; ok {
			ctrs = append(ctrs, fmt.Sprintf("%s=%d", i, v))
		}
	}
	if len(ctrs) > 0 {
		fmt.Fprintf(&b, "counters: %s\n", strings.Join(ctrs, " "))
	}
	if s.PM != (PMStats{}) {
		fmt.Fprintf(&b, "pm: stores=%dB nt=%dB flushes=%d lines=%d fences=%d sim=%dns\n",
			s.PM.StoreBytes, s.PM.NTBytes, s.PM.Flushes, s.PM.LinesFlushed,
			s.PM.Fences, s.PM.SimNanos)
	}
	return b.String()
}
