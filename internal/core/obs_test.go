package core

import (
	"bytes"
	"context"
	"reflect"
	"sort"
	"sync"
	"testing"

	"chipmunk/internal/bugs"
	"chipmunk/internal/obs"
	"chipmunk/internal/pmem"
	"chipmunk/internal/workload"
)

// TestObsSnapshotMatchesResult: the per-run snapshot's counters are set
// from the Result's deterministic fields, so the two views can never
// disagree — and the campaign collector receives the same totals.
func TestObsSnapshotMatchesResult(t *testing.T) {
	campaign := obs.New()
	res := mustRun(t, Config{NewFS: novaFS(bugs.None()), Obs: campaign}, mixedWorkload())
	if res.Obs == nil {
		t.Fatal("Result.Obs nil with Config.Obs set")
	}
	snap := res.Obs
	for _, tc := range []struct {
		ctr  obs.Counter
		want int
	}{
		{obs.CtrWorkloads, 1},
		{obs.CtrFences, res.Fences},
		{obs.CtrStatesChecked, res.StatesChecked},
		{obs.CtrDedupHits, res.StatesDeduped},
		{obs.CtrTruncatedFences, res.TruncatedFences},
		{obs.CtrSandboxRetries, res.RetriedChecks},
		{obs.CtrQuarantines, len(res.Quarantined) + res.SuppressedQuarantine},
		{obs.CtrViolations, len(res.Violations) + res.SuppressedViolations},
	} {
		if got := snap.Count(tc.ctr); got != int64(tc.want) {
			t.Errorf("counter %v = %d, want %d", tc.ctr, got, tc.want)
		}
	}
	// Every pipeline stage ran on this workload.
	for _, st := range []obs.Stage{obs.StageOracle, obs.StageRecord, obs.StageDedup,
		obs.StageReplay, obs.StageMount, obs.StageCheck} {
		if snap.Stage(st).Count == 0 {
			t.Errorf("stage %v never observed", st)
		}
	}
	// Mount observations cover every checked state (replay can exceed it:
	// post-syscall states materialize without being distinct mid-states).
	if got := snap.Stage(obs.StageMount).Count; got < int64(res.StatesChecked) {
		t.Errorf("mount count %d < states checked %d", got, res.StatesChecked)
	}
	// The record pass fed the PM cost model into the snapshot.
	if snap.PM.Fences == 0 || snap.PM.StoreBytes == 0 {
		t.Errorf("pm stats not fed: %+v", snap.PM)
	}
	// The campaign collector merged exactly this run.
	if got := campaign.Snapshot(); !reflect.DeepEqual(got.Counters, snap.Counters) {
		t.Errorf("campaign counters %v != run counters %v", got.Counters, snap.Counters)
	}
}

// TestObsDisabledByDefault: without Config.Obs the engine publishes no
// snapshot — the hot path stays on the nil no-op sink.
func TestObsDisabledByDefault(t *testing.T) {
	res := mustRun(t, Config{NewFS: novaFS(bugs.None())}, renameWorkload())
	if res.Obs != nil {
		t.Fatal("Result.Obs set without Config.Obs")
	}
}

// TestObsFaultCounter: with faults forced on, the injected-fault counter
// records landed tears/flips/media errors.
func TestObsFaultCounter(t *testing.T) {
	col := obs.New()
	cfg := Config{
		NewFS:  novaFS(bugs.None()),
		Obs:    col,
		Faults: &pmem.FaultConfig{Seed: 11, TearOneInN: 2, FlipOneInN: 2},
	}
	res := mustRun(t, cfg, mixedWorkload())
	if got := res.Obs.Count(obs.CtrFaultsInjected); got == 0 {
		t.Fatal("fault injection enabled but fault-injected counter is 0")
	}
}

// journalKeys runs w on `runs` goroutines at once, all emitting into one
// journal, and returns the sorted canonical-key multiset of that journal —
// the identity the determinism contract is stated over.
func journalKeys(t *testing.T, cfg Config, w workload.Workload, runs int) []string {
	t.Helper()
	var buf bytes.Buffer
	j := obs.NewJournal(&buf)
	cfg.Journal = j
	var wg sync.WaitGroup
	for range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := RunContext(context.Background(), cfg, w); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	events, skipped, err := obs.ReadJournal(&buf)
	if err != nil || skipped != 0 {
		t.Fatalf("journal read: err=%v skipped=%d", err, skipped)
	}
	keys := make([]string, len(events))
	for i, e := range events {
		keys[i] = e.CanonicalKey()
	}
	sort.Strings(keys)
	return keys
}

// TestJournalDeterministicAcrossWorkers: a workload journals the same event
// multiset (order-normalized; wall-clock fields excluded by CanonicalKey)
// whether it runs alone or beside other engine runs sharing the journal —
// what harness.WithWorkers does to a suite. Exercises fence, workload, and
// violation events on both a clean and a buggy system.
func TestJournalDeterministicAcrossWorkers(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		w    workload.Workload
	}{
		{"clean", Config{NewFS: novaFS(bugs.None())}, mixedWorkload()},
		{"buggy", Config{NewFS: novaFS(bugs.Of(bugs.NovaRenameInPlaceDelete))}, renameWorkload()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const workers = 4
			serial := journalKeys(t, tc.cfg, tc.w, 1)
			if len(serial) == 0 {
				t.Fatal("empty journal")
			}
			var want []string
			for range workers {
				want = append(want, serial...)
			}
			sort.Strings(want)
			if shared := journalKeys(t, tc.cfg, tc.w, workers); !reflect.DeepEqual(want, shared) {
				t.Fatalf("journal multisets diverge: %d× serial is %d events, %d concurrent runs journalled %d",
					workers, len(want), workers, len(shared))
			}
		})
	}
}

// TestJournalEventShape: the journal carries the event types the summary
// and CI validation rely on, with workload totals matching the Result.
func TestJournalEventShape(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJournal(&buf)
	res := mustRun(t, Config{
		NewFS:   novaFS(bugs.Of(bugs.NovaRenameInPlaceDelete)),
		Journal: j,
	}, renameWorkload())
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	events, _, err := obs.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	byType := map[string][]obs.Event{}
	for _, e := range events {
		byType[e.Type] = append(byType[e.Type], e)
	}
	if len(byType["fence"]) != res.Fences {
		t.Errorf("%d fence events, want %d", len(byType["fence"]), res.Fences)
	}
	if len(byType["violation"]) != len(res.Violations) {
		t.Errorf("%d violation events, want %d", len(byType["violation"]), len(res.Violations))
	}
	wl := byType["workload"]
	if len(wl) != 1 {
		t.Fatalf("%d workload events, want 1", len(wl))
	}
	if wl[0].States != res.StatesChecked || wl[0].Violations != len(res.Violations) {
		t.Errorf("workload event %+v disagrees with result (states %d, violations %d)",
			wl[0], res.StatesChecked, len(res.Violations))
	}
	if wl[0].DurNanos <= 0 {
		t.Error("workload event missing duration")
	}
}
