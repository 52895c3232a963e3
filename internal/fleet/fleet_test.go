package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"chipmunk/internal/campaign"
	"chipmunk/internal/report"
)

// fuzzTestSpec is the soak under test: NOVA with the two injected rename
// bugs (4, 5), an exec budget small enough for -race but bug-rich enough
// that the census, corpus fold, and minimization queue are all non-trivial.
// (Bugs "all" makes every crash state buggy — hundreds of clusters and a
// minute-long minimization queue, all noise for these assertions.)
func fuzzTestSpec() campaign.Spec {
	return Normalize(campaign.Spec{
		FS: "nova", Bugs: "4,5", Cap: 2,
		Fuzz: true, FuzzSeed: 11,
		BudgetExecs: 120, RoundExecs: 15, GenRounds: 4, MinExecs: 20,
	})
}

// soakResult is one distributed soak's outcome.
type soakResult struct {
	coord      *Coordinator // closed; its state stays readable
	census     report.FuzzCensus
	stats      Stats
	corpus     []CorpusEntry
	workerErrs []error
}

// runSoak spins up a fleet coordinator on a loopback listener plus n
// in-process fuzz workers and waits for the soak to finish. mut customizes
// each worker's config; ctxFor supplies per-worker contexts.
func runSoak(t *testing.T, cc CoordinatorConfig, n int, ctxFor func(i int) context.Context, mut func(i int, wc *WorkerConfig)) soakResult {
	t.Helper()
	coord, err := NewCoordinator(cc)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := campaign.ListenAndServe("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	res := soakResult{workerErrs: make([]error, n)}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wc := WorkerConfig{Addr: srv.Addr(), ID: fmt.Sprintf("w%d", i)}
		if mut != nil {
			mut(i, &wc)
		}
		wctx := context.Background()
		if ctxFor != nil {
			wctx = ctxFor(i)
		}
		wg.Add(1)
		go func(i int, wc WorkerConfig, wctx context.Context) {
			defer wg.Done()
			res.workerErrs[i] = RunWorker(wctx, wc)
		}(i, wc, wctx)
	}
	census, err := coord.Wait(context.Background())
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	wg.Wait()
	srv.Close()
	res.coord, res.census = coord, census
	res.stats = coord.Stats()
	res.corpus = coord.Corpus()
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	return res
}

func renderCensus(t *testing.T, c report.FuzzCensus) string {
	t.Helper()
	var b strings.Builder
	if err := report.WriteFuzzCensus(&b, c); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestNodeRoundReproducible: one round is a pure function of (config, seed,
// corpus cut) — two nodes over the same inputs produce byte-identical
// corpus candidates and violation ledgers.
func TestNodeRoundReproducible(t *testing.T) {
	spec := fuzzTestSpec()
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	_, cfg, err := opts.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	run := func() *FuzzResult {
		n, err := NewNode(cfg, RoundSeed(spec.FuzzSeed, 0), false, nil)
		if err != nil {
			t.Fatal(err)
		}
		d, err := n.RunRound(context.Background(), 40)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d1, d2 := run(), run()
	j1, _ := json.Marshal(struct {
		E []CorpusEntry
		V []FuzzViolation
		N int
	}{d1.NewEntries, d1.Violations, d1.StatesChecked})
	j2, _ := json.Marshal(struct {
		E []CorpusEntry
		V []FuzzViolation
		N int
	}{d2.NewEntries, d2.Violations, d2.StatesChecked})
	if string(j1) != string(j2) {
		t.Fatalf("round deltas differ:\n%s\nvs\n%s", j1, j2)
	}
	if len(d1.NewEntries) == 0 {
		t.Fatal("round admitted no corpus entries — coverage feedback broken")
	}
}

// TestConcurrentRoundsDeterministic: rounds running concurrently in one
// process (as a multi-worker in-process soak does) produce the same bytes
// as the same rounds run serially. This guards the engine-and-FS layers
// against process-shared or scheduling-dependent state leaking into round
// results — the NOVA recovery and log-GC map-order walks were exactly such
// a leak.
func TestConcurrentRoundsDeterministic(t *testing.T) {
	spec := fuzzTestSpec()
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	_, cfg, err := opts.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 8
	runRound := func(r int) string {
		n, err := NewNode(cfg, RoundSeed(spec.FuzzSeed, r), false, nil)
		if err != nil {
			t.Fatal(err)
		}
		d, err := n.RunRound(context.Background(), spec.RoundExecs)
		if err != nil {
			t.Fatal(err)
		}
		j, _ := json.Marshal(struct {
			E []CorpusEntry
			V []FuzzViolation
			N int
		}{d.NewEntries, d.Violations, d.StatesChecked})
		return string(j)
	}
	serial := make([]string, rounds)
	for r := 0; r < rounds; r++ {
		serial[r] = runRound(r)
	}
	conc := make([]string, rounds)
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			conc[r] = runRound(r)
		}(r)
	}
	wg.Wait()
	for r := 0; r < rounds; r++ {
		if serial[r] != conc[r] {
			t.Errorf("round %d differs between serial and concurrent execution:\nserial: %.400s\nconc:   %.400s", r, serial[r], conc[r])
		}
	}
}

// TestSoakDeterministicAcrossWorkerCounts is the tentpole contract: the
// rendered census — bug clusters, reproducers, corpus and coverage sizes —
// is byte-identical for any worker count, because the generation-barrier
// fold makes the corpus a pure function of the spec.
func TestSoakDeterministicAcrossWorkerCounts(t *testing.T) {
	var want string
	var wantCorpus string
	for _, n := range []int{1, 2, 4} {
		res := runSoak(t, CoordinatorConfig{Spec: fuzzTestSpec()}, n, nil, nil)
		for i, err := range res.workerErrs {
			if err != nil {
				t.Fatalf("workers=%d: worker %d: %v", n, i, err)
			}
		}
		if res.stats.RoundsDropped > 0 {
			t.Fatalf("workers=%d: %d rounds dropped in a clean run", n, res.stats.RoundsDropped)
		}
		got := renderCensus(t, res.census)
		cj, _ := json.Marshal(res.corpus)
		if want == "" {
			want, wantCorpus = got, string(cj)
			if len(res.census.Clusters) == 0 {
				t.Fatal("soak found no bugs on injected-bug nova — census is trivial, pick a different seed/budget")
			}
			if res.census.MinTasks == 0 {
				t.Fatal("no minimization tasks opened despite bugs found")
			}
			continue
		}
		if got != want {
			t.Errorf("workers=%d: census diverged:\n--- want ---\n%s\n--- got ---\n%s", n, want, got)
		}
		if string(cj) != wantCorpus {
			t.Errorf("workers=%d: corpus log diverged", n)
		}
	}
}

// TestSoakSurvivesWireFaults: under the deterministic wire-fault injector
// (dropped, truncated, and bit-flipped HTTP exchanges) the census still
// matches the clean run byte for byte — checksums and re-grants turn
// corruption into retries, never into state divergence.
func TestSoakSurvivesWireFaults(t *testing.T) {
	clean := runSoak(t, CoordinatorConfig{Spec: fuzzTestSpec()}, 2, nil, nil)
	want := renderCensus(t, clean.census)

	coord, err := NewCoordinator(CoordinatorConfig{Spec: fuzzTestSpec()})
	if err != nil {
		t.Fatal(err)
	}
	handler, stats := campaign.WrapWireFaults(coord, campaign.DefaultWireFaults(7))
	srv, err := campaign.ListenAndServe("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = RunWorker(context.Background(), WorkerConfig{
				Addr: srv.Addr(), ID: fmt.Sprintf("w%d", i),
			})
		}(i)
	}
	census, err := coord.Wait(context.Background())
	if err != nil {
		t.Fatalf("soak under wire faults: %v", err)
	}
	wg.Wait()
	srv.Close()
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if got := renderCensus(t, census); got != want {
		t.Errorf("census diverged under wire faults:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	fs := stats()
	if fs.Dropped+fs.Duped+fs.Truncated+fs.Corrupted+fs.Delayed == 0 {
		t.Error("wire-fault injector fired zero faults — the test exercised nothing")
	}
}

// TestCheckpointResume kills the coordinator mid-soak and resumes from its
// checkpoint: the resumed soak replays the credited rounds without
// re-crediting (no duplicate work), completes the budget, and renders the
// same census as an uninterrupted run.
func TestCheckpointResume(t *testing.T) {
	clean := runSoak(t, CoordinatorConfig{Spec: fuzzTestSpec()}, 2, nil, nil)
	want := renderCensus(t, clean.census)
	totalRounds := clean.stats.Rounds

	ckpt := t.TempDir() + "/fleet.ckpt"

	// Phase 1: one worker whose context dies after a few leases; then cancel
	// the coordinator (SIGKILL model: the checkpoint is all that survives).
	// Short lease TTL so draining past the dead worker's lease is fast.
	coord1, err := NewCoordinator(CoordinatorConfig{
		Spec: fuzzTestSpec(), CheckpointPath: ckpt, LeaseTTL: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := campaign.ListenAndServe("127.0.0.1:0", coord1)
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	leases := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunWorker(wctx, WorkerConfig{ //nolint:errcheck // killed on purpose
			Addr: srv1.Addr(), ID: "w0",
			OnLease: func(FuzzLeaseResponse) {
				leases++
				if leases > 3 {
					wcancel()
				}
			},
		})
	}()
	<-done
	wcancel()
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	if _, err := coord1.Wait(cctx); err == nil {
		t.Fatal("interrupted Wait returned nil error")
	}
	srv1.Close()
	coord1.Close() //nolint:errcheck // dead coordinator
	st1 := coord1.Stats()
	if st1.RoundsCredited == 0 {
		t.Fatal("phase 1 credited nothing; the resume test needs a partial checkpoint")
	}
	if st1.RoundsCredited >= totalRounds {
		t.Fatal("phase 1 finished the whole soak; nothing left to resume")
	}

	// Phase 2: resume from the checkpoint and finish.
	res := runSoak(t, CoordinatorConfig{Spec: fuzzTestSpec(), CheckpointPath: ckpt}, 2, nil, nil)
	for i, err := range res.workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if res.stats.Resumed == 0 {
		t.Fatal("resume replayed nothing from the checkpoint")
	}
	if res.stats.Resumed < st1.RoundsCredited {
		t.Errorf("resumed %d units < %d credited in phase 1", res.stats.Resumed, st1.RoundsCredited)
	}
	if res.stats.RoundsCredited != totalRounds {
		t.Errorf("rounds credited = %d, want %d (duplicate or missing credits)", res.stats.RoundsCredited, totalRounds)
	}
	if got := renderCensus(t, res.census); got != want {
		t.Errorf("resumed census diverged:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestSpecHashRejectsForeignWorker: a worker whose normalized spec hashes
// differently must be refused at handshake.
func TestSpecHashRejectsForeignWorker(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Spec: fuzzTestSpec()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := campaign.ListenAndServe("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	info := coord.Info()
	bad := info
	bad.SuiteHash = "fz0000000000000000"
	err = RunWorker(context.Background(), WorkerConfig{
		Addr: srv.Addr(), ID: "imposter", Info: &bad,
	})
	if err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("foreign worker not refused: %v", err)
	}
	coord.Drain()
	coord.Close() //nolint:errcheck // teardown
}

// TestParseBudget covers both budget syntaxes and their error paths.
func TestParseBudget(t *testing.T) {
	if execs, d, err := ParseBudget("2000"); err != nil || execs != 2000 || d != 0 {
		t.Fatalf("ParseBudget(2000) = %d, %v, %v", execs, d, err)
	}
	if execs, d, err := ParseBudget("90s"); err != nil || execs != 0 || d != 90*time.Second {
		t.Fatalf("ParseBudget(90s) = %d, %v, %v", execs, d, err)
	}
	for _, bad := range []string{"", "-5", "0", "forever", "-2h"} {
		if _, _, err := ParseBudget(bad); err == nil {
			t.Errorf("ParseBudget(%q) accepted", bad)
		}
	}
}

// TestCensusIndependentOfCreditOrder replays the same credited round
// payloads into fresh coordinators in different arrival orders and checks
// the rendered census is byte-identical — the distributed-dedup half of the
// determinism contract, isolated from live scheduling.
func TestCensusIndependentOfCreditOrder(t *testing.T) {
	// Harvest one generation's worth of real round results.
	spec := fuzzTestSpec()
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	_, cfg, err := opts.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var results []*FuzzResult
	for r := 0; r < spec.GenRounds; r++ {
		n, err := NewNode(cfg, RoundSeed(spec.FuzzSeed, r), false, nil)
		if err != nil {
			t.Fatal(err)
		}
		d, err := n.RunRound(context.Background(), spec.RoundExecs)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, &FuzzResult{
			Kind: ResultRound, Worker: "harvest", SpecHash: SpecHash(spec), Round: r,
			Execs: d.Execs, StatesChecked: d.StatesChecked,
			NewEntries: d.NewEntries, Violations: d.Violations,
		})
	}

	credit := func(order []int) (string, string) {
		coord, err := NewCoordinator(CoordinatorConfig{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			if _, err := coord.Credit(results[i]); err != nil {
				t.Fatalf("credit round %d: %v", i, err)
			}
		}
		cj, _ := json.Marshal(coord.Corpus())
		return renderCensus(t, coord.Census()), string(cj)
	}
	fwd := make([]int, len(results))
	rev := make([]int, len(results))
	for i := range results {
		fwd[i] = i
		rev[len(results)-1-i] = i
	}
	censusF, corpusF := credit(fwd)
	censusR, corpusR := credit(rev)
	if censusF != censusR {
		t.Errorf("census depends on credit order:\n--- forward ---\n%s\n--- reverse ---\n%s", censusF, censusR)
	}
	if corpusF != corpusR {
		t.Error("folded corpus depends on credit order")
	}
}
