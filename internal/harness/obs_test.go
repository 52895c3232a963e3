package harness

import (
	"bytes"
	"context"
	"flag"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/obs"
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

// TestSuiteJournalDeterministic: a whole suite's journal is the same
// canonical multiset whether workloads run serially or across 4 workers.
func TestSuiteJournalDeterministic(t *testing.T) {
	sys, _ := SystemByName("pmfs")
	suite := ace.Seq1()[:6]
	keys := map[int][]string{}
	for _, j := range []int{1, 4} {
		var buf bytes.Buffer
		jr := obs.NewJournal(&buf)
		opts := Options{Bugs: bugs.None(), Cap: 2, Journal: jr}
		if _, _, err := Run(context.Background(), opts.ConfigFor(sys), suite, WithWorkers(j)); err != nil {
			t.Fatal(err)
		}
		if err := jr.Flush(); err != nil {
			t.Fatal(err)
		}
		events, skipped, err := obs.ReadJournal(&buf)
		if err != nil || skipped != 0 {
			t.Fatalf("journal read: err=%v skipped=%d", err, skipped)
		}
		ks := make([]string, len(events))
		for i, e := range events {
			ks[i] = e.CanonicalKey()
		}
		sort.Strings(ks)
		keys[j] = ks
	}
	if len(keys[1]) == 0 {
		t.Fatal("empty suite journal")
	}
	if !reflect.DeepEqual(keys[1], keys[4]) {
		t.Fatalf("suite journal multisets diverge: j=1 has %d events, j=4 has %d",
			len(keys[1]), len(keys[4]))
	}
}

// TestSpanMultisetDeterministic: the canonical span multiset a suite emits
// is byte-identical between serial and 8-worker suite runs — the acceptance
// contract of the deterministic span layer. Span IDs are pure functions of
// work coordinates, so only wall-clock fields (cleared by CanonicalKey) may
// differ.
func TestSpanMultisetDeterministic(t *testing.T) {
	sys, _ := SystemByName("pmfs")
	suite := ace.Seq1()[:6]
	multisets := map[int]string{}
	spanCount := 0
	for _, workers := range []int{1, 8} {
		var buf bytes.Buffer
		jr := obs.NewJournal(&buf)
		opts := Options{
			Bugs: bugs.None(), Cap: 2,
			Journal: jr, Tracer: obs.NewTracer(jr, 0, 0),
		}
		if _, _, err := Run(context.Background(), opts.ConfigFor(sys), suite, WithWorkers(workers)); err != nil {
			t.Fatal(err)
		}
		if err := jr.Flush(); err != nil {
			t.Fatal(err)
		}
		events, skipped, err := obs.ReadJournal(&buf)
		if err != nil || skipped != 0 {
			t.Fatalf("journal read: err=%v skipped=%d", err, skipped)
		}
		var ks []string
		roots := 0
		for _, e := range events {
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
		if roots != len(suite) {
			t.Fatalf("workers=%d: %d root spans, want %d", workers, roots, len(suite))
		}
		sort.Strings(ks)
		spanCount = len(ks)
		multisets[workers] = strings.Join(ks, "\n")
	}
	if spanCount == 0 {
		t.Fatal("no spans emitted")
	}
	if multisets[1] != multisets[8] {
		t.Fatalf("canonical span multisets diverge between workers=1 and workers=8:\n--- j=1 ---\n%s\n--- j=8 ---\n%s",
			multisets[1], multisets[8])
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

// TestObsFlagsInstrument: the shared flag bundle resolves to a working
// Instrumentation and Apply threads it into Options.
func TestObsFlagsInstrument(t *testing.T) {
	fl := flag.NewFlagSet("test", flag.ContinueOnError)
	spec := BindCLI(fl)
	journal := t.TempDir() + "/run.jsonl"
	if err := fl.Parse([]string{"-stats", "-journal", journal, "-debug-addr", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	in, err := spec.Instrument()
	if err != nil {
		t.Fatal(err)
	}
	if in.Col == nil || in.Journal == nil || in.Debug == nil {
		t.Fatalf("instrumentation incomplete: %+v", in)
	}
	if in.Debug.Addr() == "" {
		t.Fatal("debug listener has no address")
	}
	var o Options
	in.Apply(&o)
	if o.Obs != in.Col || o.Journal != in.Journal {
		t.Fatal("Apply did not thread the instrumentation")
	}
	in.EmitRun("nova", 3)
	in.Col.Inc(obs.CtrStatesChecked)
	if s := in.RenderStats(time.Second); s == "" {
		t.Fatal("RenderStats empty with -stats set")
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	events, skipped, err := obs.ReadJournalFile(journal)
	if err != nil || skipped != 0 || len(events) != 1 || events[0].Type != "run" {
		t.Fatalf("journal after close: events=%v skipped=%d err=%v", events, skipped, err)
	}

	// All facilities off: Instrument still returns a safe bundle.
	fl2 := flag.NewFlagSet("test2", flag.ContinueOnError)
	spec2 := BindCLI(fl2)
	if err := fl2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	off, err := spec2.Instrument()
	if err != nil {
		t.Fatal(err)
	}
	if off.Col != nil || off.Journal != nil || off.Debug != nil {
		t.Fatal("disabled instrumentation not empty")
	}
	if s := off.RenderStats(time.Second); s != "" {
		t.Fatalf("RenderStats with everything off = %q", s)
	}
	var o2 Options
	off.Apply(&o2)
	if o2.Obs != nil || o2.Journal != nil {
		t.Fatal("Apply leaked non-nil sinks")
	}
	if err := off.Close(); err != nil {
		t.Fatal(err)
	}
}
