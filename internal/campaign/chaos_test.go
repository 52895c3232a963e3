package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"chipmunk/internal/core"
	"chipmunk/internal/harness"
	"chipmunk/internal/lease"
	"chipmunk/internal/obs"
	"chipmunk/internal/workload"
)

// restrictedBaseline runs the suite minus the excluded shards through plain
// harness.Run — the ground truth a degraded campaign's partial census must
// reproduce byte for byte. Valid because every census field is a sum, a
// maximum, or a suite-ordered concatenation: one run over the concatenated
// healthy slices equals the fold of per-shard runs over the same slices.
func restrictedBaseline(t *testing.T, spec Spec, shardSize int, exclude map[int]bool) string {
	t.Helper()
	suite, err := spec.BuildSuite()
	if err != nil {
		t.Fatal(err)
	}
	n := numShards(len(suite), shardSize)
	var restricted []workload.Workload
	for i := 0; i < n; i++ {
		if exclude[i] {
			continue
		}
		s, e := shardRange(i, shardSize, len(suite))
		restricted = append(restricted, suite[s:e]...)
	}
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	opts.Obs = obs.New()
	_, cfg, err := opts.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	cen, viol, err := harness.Run(context.Background(), cfg, restricted)
	if err != nil {
		t.Fatal(err)
	}
	return Fingerprint(cen, viol)
}

// TestChaosDifferential is the headline robustness contract: a campaign
// under seeded wire faults (drops, duplicates, truncation, bit flips,
// latency), a worker kill, and a deliberately poisoning shard still
// completes — degraded, not failed — and its census over the non-quarantined
// shards is byte-identical to a serial run restricted to the same shards.
// No shard is ever both credited and quarantined, and a coordinator kill +
// resume preserves the quarantine ledger exactly.
func TestChaosDifferential(t *testing.T) {
	const (
		shardSize   = 4
		poisoned    = 2
		retries     = 5 // poison always fails; wire noise must not quarantine a healthy shard
		chaosSeed   = 42
		leaseTTL    = 300 * time.Millisecond
		workerCount = 3
	)
	spec := testSpec() // Max=24 -> 6 shards of 4
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")

	coord, err := NewCoordinator(CoordinatorConfig{
		Spec: spec, ShardSize: shardSize, LeaseTTL: leaseTTL,
		ShardRetries: retries, CheckpointPath: ckpt,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	wrapped, faultStats := WrapWireFaults(coord, DefaultWireFaults(chaosSeed))
	srv, err := ListenAndServe("127.0.0.1:0", wrapped)
	if err != nil {
		t.Fatal(err)
	}

	victimCtx, killVictim := context.WithCancel(context.Background())
	defer killVictim()
	var killed sync.Once
	workerErrs := make([]error, workerCount)
	var wg sync.WaitGroup
	for i := 0; i < workerCount; i++ {
		wc := WorkerConfig{
			Addr: srv.Addr(), ID: fmt.Sprintf("w%d", i), Poll: 5 * time.Millisecond,
			PoisonShards: []int{poisoned}, // every worker crashes on the poisoned shard
		}
		wctx := context.Background()
		if i == 0 {
			wctx = victimCtx
			wc.OnLease = func(LeaseResponse) { killed.Do(killVictim) }
		}
		wg.Add(1)
		go func(i int, wc WorkerConfig, wctx context.Context) {
			defer wg.Done()
			workerErrs[i] = RunWorker(wctx, wc)
		}(i, wc, wctx)
	}

	census, viol, err := coord.Wait(context.Background())
	if err != nil {
		t.Fatalf("chaos campaign failed instead of degrading: %v", err)
	}
	wg.Wait()
	srv.Close()
	for i, werr := range workerErrs {
		if i == 0 || werr == nil {
			continue
		}
		t.Errorf("surviving worker %d: %v", i, werr)
	}
	if fs := faultStats(); fs.Dropped+fs.Duped+fs.Truncated+fs.Corrupted+fs.Delayed == 0 {
		t.Fatalf("chaos proved nothing — no faults injected: %s", fs)
	} else {
		t.Logf("%s", fs)
	}

	// Degraded, with exactly the poisoned shard quarantined.
	st := coord.Stats()
	if !coord.Degraded() || st.ShardsQuarantined != 1 {
		t.Fatalf("want exactly the poisoned shard quarantined: %+v", st)
	}
	ledger := coord.Quarantined()
	if len(ledger) != 1 || ledger[0].Shard != poisoned || ledger[0].Attempts != retries ||
		!strings.Contains(ledger[0].Err, "chaos: poisoned shard") {
		t.Fatalf("quarantine ledger: %+v", ledger)
	}
	// No shard both credited and quarantined; together they cover the suite.
	if st.Done != st.Shards-1 {
		t.Fatalf("credited %d of %d shards with 1 quarantined: %+v", st.Done, st.Shards, st)
	}
	for _, q := range ledger {
		if coordShardDone(coord, q.Shard) {
			t.Fatalf("shard %d both credited and quarantined", q.Shard)
		}
	}

	// The partial census is byte-identical to serial over the healthy shards.
	want := restrictedBaseline(t, spec, shardSize, map[int]bool{poisoned: true})
	if got := Fingerprint(census, viol); got != want {
		t.Fatalf("degraded census diverges from restricted serial:\n--- serial ---\n%s--- chaos ---\n%s", want, got)
	}
	// The quarantine count itself is measurement-class, reported but outside
	// the fingerprint.
	if census.Obs == nil || census.Obs.Counters[obs.CtrShardsQuarantined.String()] != 1 {
		t.Fatalf("shards-quarantined counter missing from census obs: %+v", census.Obs)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}

	// Coordinator kill + resume: the quarantine ledger survives exactly, the
	// credited shards come back from the checkpoint, and no worker is needed.
	resumed, err := NewCoordinator(CoordinatorConfig{
		Spec: spec, ShardSize: shardSize, ShardRetries: retries, CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	rc, rviol, err := resumed.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.Quarantined(), ledger) {
		t.Fatalf("quarantine ledger not preserved across resume:\nbefore: %+v\nafter:  %+v",
			ledger, resumed.Quarantined())
	}
	if rst := resumed.Stats(); rst.Resumed != st.Shards-1 || rst.ShardsQuarantined != 1 {
		t.Fatalf("resume stats: %+v", rst)
	}
	if got := Fingerprint(rc, rviol); got != want {
		t.Fatalf("resumed degraded census diverges:\n--- serial ---\n%s--- resumed ---\n%s", want, got)
	}
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}
}

// coordShardDone reports whether shard i is credited.
func coordShardDone(c *Coordinator, i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shards.Slots[i].State == lease.Done
}

// TestQuarantineCitesWorkerErrorOverTransport: the ledger entry of a shard
// that failed under a live worker names that failure even when a later
// attempt was merely lost — its result rejected at the wire, its lease
// expired — and among causes of one kind the latest wins.
func TestQuarantineCitesWorkerErrorOverTransport(t *testing.T) {
	spec := testSpec()
	spec.Max = 4
	coord, err := NewCoordinator(CoordinatorConfig{Spec: spec, ShardSize: 4, ShardRetries: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	hash := coord.Info().SuiteHash
	lease := func(worker string) {
		t.Helper()
		if l, err := coord.Lease(LeaseRequest{Worker: worker, SuiteHash: hash}); err != nil || l.Status != LeaseGranted {
			t.Fatalf("lease %s: %+v, %v", worker, l, err)
		}
	}
	fail := func(worker, cause string) {
		t.Helper()
		lease(worker)
		p := &ShardPayload{Shard: 0, Worker: worker, SuiteHash: hash, Err: cause}
		if _, err := coord.Credit(p); err != nil {
			t.Fatal(err)
		}
	}
	lease("w0")
	coord.RejectResult(0, "w0", "checksum mismatch")
	fail("w1", "engine: first")
	fail("w2", "engine: second")
	lease("w3")
	coord.RejectResult(0, "w3", "truncated body")

	ledger := coord.Quarantined()
	if len(ledger) != 1 || ledger[0].Attempts != 4 || ledger[0].Worker != "w2" || ledger[0].Err != "engine: second" {
		t.Fatalf("ledger %+v, want one entry citing w2's \"engine: second\" after 4 attempts", ledger)
	}
}

// TestRetryQuarantined: a quarantined shard is re-runnable — and only it
// re-runs. Phase 1 quarantines the poisoned shard; phase 2 resumes with
// RetryQuarantined and a healthy worker, re-running exactly that shard to a
// full, non-degraded census; phase 3 resumes once more and finds everything
// credited (the later credit wins over the older quarantine records).
func TestRetryQuarantined(t *testing.T) {
	const (
		shardSize = 4
		poisoned  = 2
	)
	spec := testSpec()
	_, _, fullWant := baseline(t)
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")

	// Phase 1: poison quarantines shard 2.
	res := runCampaign(t, CoordinatorConfig{
		Spec: spec, ShardSize: shardSize, ShardRetries: 2, CheckpointPath: ckpt,
	}, 2, nil, func(i int, wc *WorkerConfig) {
		wc.PoisonShards = []int{poisoned}
	})
	if res.stats.ShardsQuarantined != 1 || res.stats.Done != res.stats.Shards-1 {
		t.Fatalf("phase 1 stats: %+v", res.stats)
	}

	// Phase 2: -retry-quarantined with healthy workers re-runs exactly the
	// quarantined shard.
	res2 := runCampaign(t, CoordinatorConfig{
		Spec: spec, ShardSize: shardSize, CheckpointPath: ckpt, RetryQuarantined: true,
	}, 2, nil, nil)
	if res2.stats.Resumed != res.stats.Shards-1 {
		t.Fatalf("phase 2 resumed %d shards, want %d: %+v", res2.stats.Resumed, res.stats.Shards-1, res2.stats)
	}
	rerun := 0
	for w, n := range res2.stats.PerWorker {
		if w != "checkpoint" {
			rerun += n
		}
	}
	if rerun != 1 || res2.stats.ShardsQuarantined != 0 {
		t.Fatalf("phase 2 re-ran %d shards (want exactly the 1 quarantined): %+v", rerun, res2.stats)
	}
	if got := Fingerprint(res2.census, res2.viol); got != fullWant {
		t.Fatalf("census after retry diverges from full serial:\n--- serial ---\n%s--- retried ---\n%s", fullWant, got)
	}

	// Phase 3: the credit now outranks the old quarantine records — a plain
	// resume completes fully with zero workers.
	coord, err := NewCoordinator(CoordinatorConfig{Spec: spec, ShardSize: shardSize, CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	cen, viol, err := coord.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st := coord.Stats(); st.Resumed != st.Shards || st.ShardsQuarantined != 0 || coord.Degraded() {
		t.Fatalf("phase 3 stats: %+v", st)
	}
	if got := Fingerprint(cen, viol); got != fullWant {
		t.Fatalf("phase 3 census diverges:\n--- serial ---\n%s--- resumed ---\n%s", fullWant, got)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointTornQuarantineTail: a checkpoint whose final quarantine
// line is torn (coordinator SIGKILLed mid-append) still resumes; the torn
// line is skipped and counted, the intact quarantine records carry forward.
func TestCheckpointTornQuarantineTail(t *testing.T) {
	const shardSize = 4
	spec := testSpec()
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
	res := runCampaign(t, CoordinatorConfig{
		Spec: spec, ShardSize: shardSize, ShardRetries: 2, CheckpointPath: ckpt,
	}, 2, nil, func(i int, wc *WorkerConfig) {
		wc.PoisonShards = []int{1}
	})
	if res.stats.ShardsQuarantined != 1 {
		t.Fatalf("phase 1 stats: %+v", res.stats)
	}

	tearCheckpoint(t, ckpt, `{"type":"quarantine","quarantine":{"shard":3,"sta`)
	st, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if st.Skipped != 1 || len(st.Quarantined) != 1 || st.Quarantined[0].Shard != 1 {
		t.Fatalf("torn checkpoint: skipped=%d quarantined=%+v", st.Skipped, st.Quarantined)
	}

	coord, err := NewCoordinator(CoordinatorConfig{Spec: spec, ShardSize: shardSize, CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rst := coord.Stats(); rst.ShardsQuarantined != 1 || rst.Resumed != rst.Shards-1 {
		t.Fatalf("resume stats: %+v", rst)
	}
	want := restrictedBaseline(t, spec, shardSize, map[int]bool{1: true})
	cen, viol := coord.Merged()
	if got := Fingerprint(cen, viol); got != want {
		t.Fatalf("resumed degraded census diverges:\n--- serial ---\n%s--- resumed ---\n%s", want, got)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
}

func tearCheckpoint(t *testing.T, path, torn string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(torn); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHeartbeatSemantics drives the heartbeat endpoint directly: extension
// only for the live lease holder, refusal for strangers and expired leases,
// rejection for foreign fingerprints.
func TestHeartbeatSemantics(t *testing.T) {
	spec := testSpec()
	spec.Max = 4
	coord, err := NewCoordinator(CoordinatorConfig{Spec: spec, ShardSize: 4, LeaseTTL: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	hash := coord.Info().SuiteHash
	lease, err := coord.Lease(LeaseRequest{Worker: "holder", SuiteHash: hash})
	if err != nil || lease.Status != LeaseGranted {
		t.Fatalf("lease: %+v, %v", lease, err)
	}
	if hb, err := coord.Heartbeat(HeartbeatRequest{Worker: "holder", Shard: lease.Shard, SuiteHash: hash}); err != nil || !hb.Extended {
		t.Fatalf("holder heartbeat refused: %+v, %v", hb, err)
	}
	if hb, err := coord.Heartbeat(HeartbeatRequest{Worker: "stranger", Shard: lease.Shard, SuiteHash: hash}); err != nil || hb.Extended {
		t.Fatalf("stranger extended a lease it does not hold: %+v, %v", hb, err)
	}
	if _, err := coord.Heartbeat(HeartbeatRequest{Worker: "holder", Shard: lease.Shard, SuiteHash: "deadbeef"}); err == nil ||
		!strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("foreign-fingerprint heartbeat accepted: %v", err)
	}
	if _, err := coord.Heartbeat(HeartbeatRequest{Worker: "holder", Shard: 99, SuiteHash: hash}); err == nil {
		t.Fatal("out-of-range heartbeat accepted")
	}
	time.Sleep(90 * time.Millisecond) // past the TTL
	if hb, err := coord.Heartbeat(HeartbeatRequest{Worker: "holder", Shard: lease.Shard, SuiteHash: hash}); err != nil || hb.Extended {
		t.Fatalf("expired lease extended: %+v, %v", hb, err)
	}
	if st := coord.Stats(); st.Heartbeats != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestHeartbeatKeepsSlowShardAlive: a shard legitimately slower than the
// lease TTL survives because its worker heartbeats — a second, idle worker
// keeps polling (which is what reclaims expired leases) and never steals
// the shard.
func TestHeartbeatKeepsSlowShardAlive(t *testing.T) {
	spec := testSpec()
	spec.Max = 4 // one shard
	const ttl = 150 * time.Millisecond
	res := runCampaign(t, CoordinatorConfig{Spec: spec, ShardSize: 4, LeaseTTL: ttl},
		2, nil, func(i int, wc *WorkerConfig) {
			// Whichever worker wins the shard runs slow; the other keeps
			// polling Lease, which is what reclaims expired leases.
			wc.runEngine = func(ctx context.Context, cfg core.Config, slice []workload.Workload, lease LeaseResponse, jobs int) (*harness.Census, []core.Violation, error) {
				select {
				case <-time.After(3 * ttl): // much longer than the lease
				case <-ctx.Done():
					return nil, nil, ctx.Err()
				}
				return harness.Run(ctx, cfg, slice, harness.WithWorkers(jobs))
			}
		})
	for i, err := range res.workerErrs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if res.stats.Redispatched != 0 || res.stats.Heartbeats < 2 || res.stats.Done != 1 {
		t.Fatalf("slow shard not kept alive by heartbeats: %+v", res.stats)
	}
}

// TestShardWatchdog: an engine call that hangs past -shard-timeout becomes
// a structured error payload (one failed dispatch attempt), and a shard
// that always hangs ends up quarantined — a degraded campaign, not a hung
// fleet.
func TestShardWatchdog(t *testing.T) {
	spec := testSpec()
	spec.Max = 4 // one shard
	res := runCampaign(t, CoordinatorConfig{Spec: spec, ShardSize: 4, ShardRetries: 2},
		1, nil, func(i int, wc *WorkerConfig) {
			wc.ShardTimeout = 50 * time.Millisecond
			wc.runEngine = func(ctx context.Context, cfg core.Config, slice []workload.Workload, lease LeaseResponse, jobs int) (*harness.Census, []core.Violation, error) {
				<-ctx.Done() // hang until the watchdog fires
				return nil, nil, ctx.Err()
			}
		})
	if res.workerErrs[0] != nil {
		t.Fatalf("worker died instead of defending itself: %v", res.workerErrs[0])
	}
	if res.stats.ShardsQuarantined != 1 || res.stats.Done != 0 {
		t.Fatalf("hung shard not quarantined: %+v", res.stats)
	}
	if res.census.Workloads != 0 {
		t.Fatalf("hung shard credited workloads: %+v", res.census)
	}
}

// TestWorkerPanicContained: a transiently panicking engine call (standing
// in for any escape from the check sandbox) is contained into an error
// payload — the worker stays alive, the shard is re-dispatched within its
// attempt budget, and the campaign still completes whole.
func TestWorkerPanicContained(t *testing.T) {
	_, _, fullWant := baseline(t)
	var panicked sync.Once
	var tripped bool
	res := runCampaign(t, CoordinatorConfig{Spec: testSpec(), ShardSize: 4, ShardRetries: 3},
		2, nil, func(i int, wc *WorkerConfig) {
			wc.runEngine = func(ctx context.Context, cfg core.Config, slice []workload.Workload, lease LeaseResponse, jobs int) (*harness.Census, []core.Violation, error) {
				if lease.Shard == 1 {
					trip := false
					panicked.Do(func() { trip = true; tripped = true })
					if trip {
						panic("chaos: transient engine panic")
					}
				}
				return harness.Run(ctx, cfg, slice, harness.WithWorkers(jobs))
			}
		})
	for i, err := range res.workerErrs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if !tripped {
		t.Fatal("panic hook never fired")
	}
	if res.stats.ShardsQuarantined != 0 || res.stats.Done != res.stats.Shards || res.stats.Redispatched < 1 {
		t.Fatalf("transient panic not contained and re-dispatched: %+v", res.stats)
	}
	if got := Fingerprint(res.census, res.viol); got != fullWant {
		t.Fatalf("census diverges after contained panic:\n--- serial ---\n%s--- got ---\n%s", fullWant, got)
	}
}

// TestDialBudgetExhausted: a worker that can never reach the coordinator
// exhausts its bounded retry budget and fails with ErrCoordinatorGone —
// the distinct "could not join" outcome — instead of retrying forever.
func TestDialBudgetExhausted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here anymore
	start := time.Now()
	err = RunWorker(context.Background(), WorkerConfig{Addr: addr, ID: "w", DialBudget: 250 * time.Millisecond})
	if !errors.Is(err, ErrCoordinatorGone) {
		t.Fatalf("want ErrCoordinatorGone, got: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dial retry not bounded by budget: took %v", elapsed)
	}
}

// TestResultChecksumRejected: the wire boundary refuses result bodies that
// fail their self-checksum (HTTP 400) and counts them, so corruption is
// re-dispatched, never mis-credited.
func TestResultChecksumRejected(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Spec: testSpec(), ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord)
	defer srv.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+PathResult, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	// Valid JSON, wrong checksum.
	p := &ShardPayload{Shard: 0, Worker: "w", SuiteHash: coord.Info().SuiteHash, Workloads: 4, Sum: "0000000000000000"}
	b, _ := json.Marshal(p)
	if resp := post(string(b)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("checksum mismatch not rejected: %d", resp.StatusCode)
	}
	// Missing checksum.
	p.Sum = ""
	b, _ = json.Marshal(p)
	if resp := post(string(b)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing checksum not rejected: %d", resp.StatusCode)
	}
	// Truncated JSON.
	if resp := post(string(b[:len(b)/2])); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated body not rejected: %d", resp.StatusCode)
	}
	if st := coord.Stats(); st.BadPayloads != 3 || st.Done != 0 {
		t.Fatalf("stats: %+v", st)
	}
	// And the genuine payload still credits.
	p.Sum = PayloadSum(p)
	b, _ = json.Marshal(p)
	if resp := post(string(b)); resp.StatusCode != http.StatusOK {
		t.Fatalf("honest payload rejected: %d", resp.StatusCode)
	}
	if st := coord.Stats(); st.Done != 1 {
		t.Fatalf("stats after honest credit: %+v", st)
	}
}

// TestPayloadSumSelfConsistent: the checksum is a pure function of payload
// content, ignores its own field, and moves when any field moves.
func TestPayloadSumSelfConsistent(t *testing.T) {
	p := &ShardPayload{Shard: 3, Worker: "w", SuiteHash: "abc", Workloads: 4, StatesChecked: 99}
	sum := PayloadSum(p)
	p.Sum = sum
	if got := PayloadSum(p); got != sum {
		t.Fatalf("checksum depends on its own field: %s vs %s", got, sum)
	}
	p.StatesChecked++
	if got := PayloadSum(p); got == sum {
		t.Fatal("checksum blind to a content change")
	}
}

// TestWireFaultDeterminism: injection decisions are a pure function of
// (seed, endpoint, call-index) — same seed, same faults; different seed,
// (overwhelmingly) different faults.
func TestWireFaultDeterminism(t *testing.T) {
	pattern := func(seed uint64) string {
		wf := &wireFaults{cfg: *DefaultWireFaults(seed)}
		var b strings.Builder
		for _, ep := range []string{PathLease, PathResult, PathHeartbeat} {
			for idx := uint64(0); idx < 64; idx++ {
				for _, dom := range []uint64{wireDropDomain, wireDupDomain, wireTruncDomain, wireFlipDomain, wireDelayDomain} {
					if hit(wf.site(dom, ep, idx), 11) {
						b.WriteByte('x')
					} else {
						b.WriteByte('.')
					}
				}
			}
		}
		return b.String()
	}
	if pattern(7) != pattern(7) {
		t.Fatal("same seed produced different fault patterns")
	}
	if pattern(7) == pattern(8) {
		t.Fatal("different seeds produced identical fault patterns")
	}
}
