package harness

import (
	"bytes"
	"context"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
	"chipmunk/internal/obs"
	"chipmunk/internal/workload"
)

// TestCensusObsMerged: Run merges every engine run's snapshot into
// Census.Obs, and the merged counters agree with the census's own fields
// regardless of suite-level worker count.
func TestCensusObsMerged(t *testing.T) {
	sys, _ := SystemByName("nova")
	suite := ace.Seq1()[:8]
	var serial, parallel *Census
	for _, j := range []int{1, 4} {
		opts := Options{Bugs: bugs.None(), Cap: 2, Obs: obs.New()}
		census, _, err := Run(context.Background(), opts.ConfigFor(sys), suite, WithWorkers(j))
		if err != nil {
			t.Fatal(err)
		}
		if census.Obs == nil {
			t.Fatal("Census.Obs nil with Options.Obs set")
		}
		if got := census.Obs.Count(obs.CtrWorkloads); got != int64(census.Workloads) {
			t.Fatalf("j=%d: obs workloads %d != census %d", j, got, census.Workloads)
		}
		if got := census.Obs.Count(obs.CtrStatesChecked); got != int64(census.StatesChecked) {
			t.Fatalf("j=%d: obs states %d != census %d", j, got, census.StatesChecked)
		}
		if j == 1 {
			serial = census
		} else {
			parallel = census
		}
	}
	// Only the deterministic counters are covered by the serial == parallel
	// contract; the materialization counters vary with pool scheduling.
	if !reflect.DeepEqual(serial.Obs.DeterministicCounters(), parallel.Obs.DeterministicCounters()) {
		t.Fatalf("census counters diverge by suite workers:\n j=1: %v\n j=4: %v",
			serial.Obs.DeterministicCounters(), parallel.Obs.DeterministicCounters())
	}
}

// journalModes are the three ways a suite must journal the same canonical
// multiset: a loop of memo-less core.RunContext calls, and Run — which
// shares crash points through its prefix memo — serially and over four
// workers.
var journalModes = []struct {
	name    string
	workers int // 0: the unshared core.RunContext loop
}{{"unshared", 0}, {"j=1", 1}, {"j=4", 4}}

func runJournalMode(t *testing.T, workers int, cfg core.Config, suite []workload.Workload) {
	t.Helper()
	if workers > 0 {
		if _, _, err := Run(context.Background(), cfg, suite, WithWorkers(workers)); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, w := range suite {
		if _, err := core.RunContext(context.Background(), cfg, w); err != nil {
			t.Fatal(err)
		}
	}
}

// suiteJournal runs the first six Seq1 workloads on pmfs in the given
// journal mode with a tracer attached, and returns the journal it wrote.
func suiteJournal(t *testing.T, workers int) []obs.Event {
	t.Helper()
	sys, _ := SystemByName("pmfs")
	var buf bytes.Buffer
	jr := obs.NewJournal(&buf)
	opts := Options{Bugs: bugs.None(), Cap: 2, Tracer: obs.NewTracer(jr, 0, 0)}
	runJournalMode(t, workers, opts.ConfigFor(sys), ace.Seq1()[:6])
	if err := jr.Flush(); err != nil {
		t.Fatal(err)
	}
	events, skipped, err := obs.ReadJournal(&buf)
	if err != nil || skipped != 0 {
		t.Fatalf("journal read: err=%v skipped=%d", err, skipped)
	}
	return events
}

// TestSuiteJournalDeterministic: a whole suite's journal — engine spans and
// events alike — is the same canonical multiset unshared, and shared
// serially or across 4 workers.
func TestSuiteJournalDeterministic(t *testing.T) {
	keys := map[string][]string{}
	for _, mode := range journalModes {
		events := suiteJournal(t, mode.workers)
		ks := make([]string, len(events))
		for i, e := range events {
			ks[i] = e.CanonicalKey()
		}
		sort.Strings(ks)
		keys[mode.name] = ks
	}
	if len(keys["unshared"]) == 0 {
		t.Fatal("empty suite journal")
	}
	for _, mode := range journalModes[1:] {
		if !reflect.DeepEqual(keys["unshared"], keys[mode.name]) {
			t.Fatalf("suite journal multisets diverge: unshared has %d events, %s has %d",
				len(keys["unshared"]), mode.name, len(keys[mode.name]))
		}
	}
}

// TestSpanMultisetDeterministic: the canonical span multiset a suite emits
// is byte-identical unshared, and shared serially or across 4 workers — the
// acceptance contract of the deterministic span layer. Span IDs are pure
// functions of work coordinates, so only wall-clock fields (cleared by
// CanonicalKey) may differ.
func TestSpanMultisetDeterministic(t *testing.T) {
	const suiteLen = 6
	multisets := map[string]string{}
	spanCount := 0
	for _, mode := range journalModes {
		var ks []string
		roots := 0
		for _, e := range suiteJournal(t, mode.workers) {
			if e.Type != "span" {
				continue
			}
			if e.Trace == "" || e.Span == "" {
				t.Fatalf("span event missing IDs: %+v", e)
			}
			if e.Name == "workload" && e.Parent == "" {
				roots++
			}
			ks = append(ks, e.CanonicalKey())
		}
		if roots != suiteLen {
			t.Fatalf("%s: %d root spans, want %d", mode.name, roots, suiteLen)
		}
		sort.Strings(ks)
		spanCount = len(ks)
		multisets[mode.name] = strings.Join(ks, "\n")
	}
	if spanCount == 0 {
		t.Fatal("no spans emitted")
	}
	for _, mode := range journalModes[1:] {
		if multisets["unshared"] != multisets[mode.name] {
			t.Fatalf("canonical span multisets diverge between unshared and %s:\n--- unshared ---\n%s\n--- %s ---\n%s",
				mode.name, multisets["unshared"], mode.name, multisets[mode.name])
		}
	}
}

// TestProgressNotSerializedBySlowCallback: a progress callback much slower
// than a workload must not gate the parallel run — coalescing means the
// callback fires far fewer times than there are workloads, while the final
// update (done == total) is still always delivered, and calls are
// serialized with monotonically non-decreasing done values.
func TestProgressNotSerializedBySlowCallback(t *testing.T) {
	sys, _ := SystemByName("nova")
	suite := ace.Seq1()[:12]
	const delay = 30 * time.Millisecond

	var mu sync.Mutex
	var calls []int
	inCallback := false
	cfg := Options{Bugs: bugs.None(), Cap: 1}.ConfigFor(sys)
	census, _, err := Run(context.Background(), cfg, suite,
		WithWorkers(4),
		WithProgress(func(done, total int, c Census) {
			mu.Lock()
			if inCallback {
				mu.Unlock()
				t.Error("progress callbacks overlap")
				return
			}
			inCallback = true
			calls = append(calls, done)
			mu.Unlock()
			time.Sleep(delay) // a deliberately slow printer
			mu.Lock()
			inCallback = false
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(calls) == 0 {
		t.Fatal("progress never delivered")
	}
	for i := 1; i < len(calls); i++ {
		if calls[i] < calls[i-1] {
			t.Fatalf("done values regressed: %v", calls)
		}
	}
	if final := calls[len(calls)-1]; final != census.Workloads {
		t.Fatalf("final progress %d != completed workloads %d", final, census.Workloads)
	}
	// If the callback gated the workers, the run would have taken at least
	// one delay per workload; coalescing keeps the call count well below
	// the workload count when the callback is the bottleneck.
	if len(calls) >= len(suite) && census.Elapsed > time.Duration(len(suite))*delay {
		t.Fatalf("slow callback serialized the run: %d calls, %v elapsed", len(calls), census.Elapsed)
	}
}

// TestProgressSnapshotIsDetached: a progress callback may keep its census
// and read it after Run returns, on the serial and the notifier path: no
// later fold moves a kept snapshot's counts, and a snapshot carries counts
// only, no obs.
func TestProgressSnapshotIsDetached(t *testing.T) {
	sys, _ := SystemByName("nova")
	suite := ace.Seq2()[:200]
	for _, workers := range []int{1, 2} {
		var kept []Census
		var dones []int
		cfg := Options{Bugs: bugs.None(), Obs: obs.New()}.ConfigFor(sys)
		final, _, err := Run(context.Background(), cfg, suite, WithWorkers(workers),
			WithProgress(func(done, total int, c Census) {
				kept, dones = append(kept, c), append(dones, done)
			}))
		if err != nil {
			t.Fatal(err)
		}
		if len(kept) == 0 {
			t.Fatalf("workers=%d: progress never delivered", workers)
		}
		if final.Obs == nil {
			t.Fatalf("workers=%d: the final census lost its obs", workers)
		}
		for i, c := range kept {
			if c.Obs != nil {
				t.Fatalf("workers=%d: snapshot %d carries an obs snapshot", workers, i)
			}
			if c.Workloads != dones[i] || (i > 0 && c.StatesChecked < kept[i-1].StatesChecked) {
				t.Fatalf("workers=%d: snapshot %d moved after delivery: %d workloads at done=%d",
					workers, i, c.Workloads, dones[i])
			}
		}
	}
}
