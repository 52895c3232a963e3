package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"chipmunk/internal/core"
	"chipmunk/internal/harness"
	"chipmunk/internal/lease"
	"chipmunk/internal/obs"
	"path/filepath"
)

// testSpec is the shared campaign under test: injected-bug NOVA over a
// seq1 prefix, small enough for -race, bug-rich enough that the violation
// ledger (the hard part of the determinism contract) is non-trivial.
func testSpec() Spec {
	return Spec{FS: "nova", Bugs: "all", Suite: "seq1", Max: 24, Cap: 2, Workers: 1, Stats: true}
}

// serialBaseline runs testSpec's suite through plain harness.Run once per
// test binary — the ground truth every distributed configuration must
// reproduce byte for byte.
var baselineOnce sync.Once
var baselineCensus *harness.Census
var baselineViol []core.Violation
var baselineErr error

func baseline(t *testing.T) (*harness.Census, []core.Violation, string) {
	t.Helper()
	baselineOnce.Do(func() {
		baselineCensus, baselineViol, baselineErr = serialRun(testSpec(), 0)
	})
	if baselineErr != nil {
		t.Fatalf("serial baseline: %v", baselineErr)
	}
	return baselineCensus, baselineViol, Fingerprint(baselineCensus, baselineViol)
}

// serialRun runs spec's suite through plain harness.Run, with the deprecated
// harness.Options.Workers set to optWorkers.
func serialRun(spec Spec, optWorkers int) (*harness.Census, []core.Violation, error) {
	suite, err := spec.BuildSuite()
	if err != nil {
		return nil, nil, err
	}
	opts, err := spec.Options()
	if err != nil {
		return nil, nil, err
	}
	opts.Workers = optWorkers
	opts.Obs = obs.New()
	_, cfg, err := opts.Resolve()
	if err != nil {
		return nil, nil, err
	}
	return harness.Run(context.Background(), cfg, suite)
}

// campaignResult is one distributed run's outcome.
type campaignResult struct {
	census *harness.Census
	viol   []core.Violation
	stats  Stats
	// workerErrs holds each worker goroutine's exit error, by index.
	workerErrs []error
}

// runCampaign spins up a coordinator on a loopback listener plus n
// in-process workers and waits for the campaign to finish. mut, when set,
// customizes each worker's config (kill hooks, IDs); ctxFor, when set,
// supplies per-worker contexts (cancel one to kill that worker).
func runCampaign(t *testing.T, cc CoordinatorConfig, n int, ctxFor func(i int) context.Context, mut func(i int, wc *WorkerConfig)) campaignResult {
	t.Helper()
	coord, err := NewCoordinator(cc)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ListenAndServe("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	res := campaignResult{workerErrs: make([]error, n)}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wc := WorkerConfig{Addr: srv.Addr(), ID: fmt.Sprintf("w%d", i), Poll: 5 * time.Millisecond}
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
	census, viol, err := coord.Wait(context.Background())
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	// Workers exit on their own (next lease poll answers LeaseDone); close
	// the listener only after, so nobody falls into the dial-retry budget.
	wg.Wait()
	srv.Close()
	res.census, res.viol = census, viol
	res.stats = coord.Stats()
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDistributedMatchesSerial is the determinism contract: for any worker
// count, the folded campaign census is byte-identical to a serial
// harness.Run of the same suite — counts, violation ledger, quarantines,
// deterministic obs counters, and the exact AvgInFlight float.
func TestDistributedMatchesSerial(t *testing.T) {
	serialCensus, _, want := baseline(t)
	for _, n := range []int{1, 2, 4} {
		n := n
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			res := runCampaign(t, CoordinatorConfig{Spec: testSpec(), ShardSize: 4}, n, nil, nil)
			for i, err := range res.workerErrs {
				if err != nil {
					t.Errorf("worker %d: %v", i, err)
				}
			}
			if got := Fingerprint(res.census, res.viol); got != want {
				t.Fatalf("distributed census diverges from serial:\n--- serial ---\n%s--- distributed ---\n%s", want, got)
			}
			if res.census.AvgInFlight != serialCensus.AvgInFlight {
				t.Fatalf("AvgInFlight diverges: serial %v distributed %v",
					serialCensus.AvgInFlight, res.census.AvgInFlight)
			}
			if res.stats.Done != res.stats.Shards || res.stats.Duplicates != 0 {
				t.Fatalf("stats: %+v", res.stats)
			}
		})
	}
}

// TestDistributedMatchesSerialWorkerKill kills a worker mid-shard: its
// lease expires, the shard is re-dispatched whole to a surviving worker,
// and the merged census is still byte-identical to serial.
func TestDistributedMatchesSerialWorkerKill(t *testing.T) {
	_, _, want := baseline(t)
	victimCtx, killVictim := context.WithCancel(context.Background())
	defer killVictim()
	var killed sync.Once
	res := runCampaign(t,
		CoordinatorConfig{Spec: testSpec(), ShardSize: 4, LeaseTTL: 250 * time.Millisecond},
		3, func(i int) context.Context {
			if i == 0 {
				return victimCtx
			}
			return context.Background()
		}, func(i int, wc *WorkerConfig) {
			if i != 0 {
				return
			}
			// Worker 0 dies the moment its first lease is granted — after
			// the coordinator marked the shard leased, before any result.
			wc.OnLease = func(LeaseResponse) { killed.Do(killVictim) }
		})
	// The victim must have exited on its own cancelled context; survivors
	// clean.
	for i, err := range res.workerErrs {
		if i == 0 {
			if err == nil {
				t.Log("victim finished before first lease (campaign too fast); kill path not exercised")
			}
			continue
		}
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if res.workerErrs[0] != nil && res.stats.Redispatched == 0 {
		t.Fatalf("victim died mid-shard but nothing was re-dispatched: %+v", res.stats)
	}
	if got := Fingerprint(res.census, res.viol); got != want {
		t.Fatalf("census diverges after worker kill:\n--- serial ---\n%s--- distributed ---\n%s", want, got)
	}
	if res.stats.PerWorker["w0"] != 0 {
		t.Fatalf("dead worker credited: %+v", res.stats)
	}
}

// TestDistributedMatchesSerialResume interrupts a campaign after K shards,
// restarts the coordinator against the same checkpoint, and verifies that
// exactly the N-K missing shards re-run and the merged census still
// matches serial byte for byte.
func TestDistributedMatchesSerialResume(t *testing.T) {
	_, _, want := baseline(t)
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")

	// Phase 1: interrupt the coordinator once 2 shards are credited. The
	// drain path keeps crediting in-flight shards, so K >= 2.
	ctx1, interrupt := context.WithCancel(context.Background())
	defer interrupt()
	wctx1, stopWorkers1 := context.WithCancel(context.Background())
	defer stopWorkers1()
	coord1, err := NewCoordinator(CoordinatorConfig{
		Spec: testSpec(), ShardSize: 4, CheckpointPath: ckpt,
		Progress: func(done, total int, c harness.Census) {
			if done >= 8 { // 2 shards of 4 workloads
				interrupt()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := ListenAndServe("127.0.0.1:0", coord1)
	if err != nil {
		t.Fatal(err)
	}
	var wg1 sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg1.Add(1)
		go func(i int) {
			defer wg1.Done()
			RunWorker(wctx1, WorkerConfig{ //nolint:errcheck // interrupted on purpose
				Addr: srv1.Addr(), ID: fmt.Sprintf("p1-w%d", i), Poll: 5 * time.Millisecond,
			})
		}(i)
	}
	_, _, err = coord1.Wait(ctx1)
	if err == nil {
		t.Fatal("phase 1 completed before the interrupt; raise the suite size")
	}
	srv1.Close()
	stopWorkers1()
	wg1.Wait()
	k := coord1.Stats().Done
	if err := coord1.Close(); err != nil {
		t.Fatal(err)
	}
	if k < 2 || k >= coord1.Stats().Shards {
		t.Fatalf("phase 1 credited %d of %d shards; want a strict partial >= 2",
			k, coord1.Stats().Shards)
	}

	// Phase 2: a fresh coordinator resumes from the checkpoint. Exactly k
	// shards come back from disk; the workers run only the rest.
	res := runCampaign(t, CoordinatorConfig{Spec: testSpec(), ShardSize: 4, CheckpointPath: ckpt},
		2, nil, nil)
	for i, err := range res.workerErrs {
		if err != nil {
			t.Errorf("phase 2 worker %d: %v", i, err)
		}
	}
	if res.stats.Resumed != k || res.stats.PerWorker["checkpoint"] != k {
		t.Fatalf("resumed %d shards from checkpoint, want %d: %+v", res.stats.Resumed, k, res.stats)
	}
	rerun := 0
	for w, n := range res.stats.PerWorker {
		if w != "checkpoint" {
			rerun += n
		}
	}
	if rerun != res.stats.Shards-k {
		t.Fatalf("phase 2 re-ran %d shards, want exactly %d: %+v", rerun, res.stats.Shards-k, res.stats)
	}
	if got := Fingerprint(res.census, res.viol); got != want {
		t.Fatalf("census diverges after resume:\n--- serial ---\n%s--- resumed ---\n%s", want, got)
	}
}

// TestLeaseExpiryAtMostOnce drives the lease state machine directly: an
// expired lease re-dispatches, and the slow original worker's late result
// is discarded as a duplicate rather than double-credited.
func TestLeaseExpiryAtMostOnce(t *testing.T) {
	spec := testSpec()
	spec.Max = 4
	coord, err := NewCoordinator(CoordinatorConfig{Spec: spec, ShardSize: 4, LeaseTTL: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	hash := coord.Info().SuiteHash
	la, err := coord.Lease(LeaseRequest{Worker: "slow", SuiteHash: hash})
	if err != nil || la.Status != LeaseGranted {
		t.Fatalf("lease A: %+v, %v", la, err)
	}
	time.Sleep(50 * time.Millisecond) // past the TTL
	lb, err := coord.Lease(LeaseRequest{Worker: "fast", SuiteHash: hash})
	if err != nil || lb.Status != LeaseGranted || lb.Shard != la.Shard {
		t.Fatalf("expired lease not re-dispatched: %+v, %v", lb, err)
	}
	payload := &ShardPayload{Shard: lb.Shard, Worker: "fast", SuiteHash: hash, Workloads: 4}
	if cr, err := coord.Credit(payload); err != nil || !cr.Accepted || !cr.Done {
		t.Fatalf("credit fast: %+v, %v", cr, err)
	}
	late := &ShardPayload{Shard: la.Shard, Worker: "slow", SuiteHash: hash, Workloads: 4}
	cr, err := coord.Credit(late)
	if err != nil || cr.Accepted || !cr.Duplicate {
		t.Fatalf("late result not discarded as duplicate: %+v, %v", cr, err)
	}
	st := coord.Stats()
	if st.Redispatched != 1 || st.Duplicates != 1 || st.Done != 1 || st.PerWorker["slow"] != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestLeaseRegrant: a worker only asks for a shard when it believes it holds
// none, so a second request from a live lease holder means its lease response
// was lost, duplicated or discarded — it gets the same shard back with a
// fresh deadline instead of a second one, and no failed attempt is booked
// against the healthy first. A lease that really expired is accounted, not
// renewed.
func TestLeaseRegrant(t *testing.T) {
	spec := testSpec()
	spec.Max = 12 // three shards of 4
	coord, err := NewCoordinator(CoordinatorConfig{Spec: spec, ShardSize: 4, LeaseTTL: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	hash := coord.Info().SuiteHash
	lease := func(worker string) int {
		t.Helper()
		l, err := coord.Lease(LeaseRequest{Worker: worker, SuiteHash: hash})
		if err != nil || l.Status != LeaseGranted {
			t.Fatalf("lease %s: %+v, %v", worker, l, err)
		}
		return l.Shard
	}
	if a, b := lease("w0"), lease("w0"); a != 0 || b != 0 {
		t.Fatalf("one worker's two lease calls returned shards %d and %d, want 0 both times", a, b)
	}
	if st := coord.Stats(); st.Redispatched != 0 || shardAttempts(coord, 0) != 0 {
		t.Fatalf("re-grant booked a failed attempt: %+v, attempts %d", st, shardAttempts(coord, 0))
	}
	if got := lease("w1"); got != 1 {
		t.Fatalf("a different worker got shard %d, want the next one (1)", got)
	}
	// w0's lease runs out: its heartbeat is refused (lease lost), and its next
	// request goes through expiry accounting — one failed attempt, one
	// re-dispatch — before it is granted a shard afresh.
	time.Sleep(60 * time.Millisecond)
	if hb, err := coord.Heartbeat(HeartbeatRequest{Worker: "w0", Shard: 0, SuiteHash: hash}); err != nil || hb.Extended {
		t.Fatalf("expired lease extended: %+v, %v", hb, err)
	}
	if got := lease("w0"); got != 0 {
		t.Fatalf("after losing its lease w0 got shard %d, want the lowest pending (0)", got)
	}
	if st := coord.Stats(); st.Redispatched != 2 || shardAttempts(coord, 0) != 1 || shardAttempts(coord, 1) != 1 {
		t.Fatalf("expired leases not accounted: %+v, attempts %d and %d",
			st, shardAttempts(coord, 0), shardAttempts(coord, 1))
	}
}

// shardAttempts reads shard i's failed-attempt count.
func shardAttempts(c *Coordinator, i int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shards.Slots[i].Attempts
}

// TestSuiteFingerprintMismatch checks both rejection sides: the
// coordinator refuses leases and results carrying a foreign fingerprint
// (HTTP 409 with a diagnosable message), and a worker whose local
// generator disagrees with the handshake refuses to run at all.
func TestSuiteFingerprintMismatch(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Spec: testSpec(), ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord)
	defer srv.Close()

	resp, err := http.Post(srv.URL+PathLease, "application/json",
		strings.NewReader(`{"worker":"rogue","suite_hash":"deadbeef"}`))
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 512)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || !strings.Contains(string(body[:n]), "suite fingerprint mismatch") {
		t.Fatalf("lease with foreign hash: status %d, body %q", resp.StatusCode, body[:n])
	}
	if _, err := coord.Credit(&ShardPayload{Shard: 0, Worker: "rogue", SuiteHash: "deadbeef"}); err == nil ||
		!strings.Contains(err.Error(), "suite fingerprint mismatch") {
		t.Fatalf("credit with foreign hash: %v", err)
	}
	if st := coord.Stats(); st.Rejected != 2 {
		t.Fatalf("stats: %+v", st)
	}

	// Worker side: a coordinator lying about the fingerprint (stand-in for
	// a diverged generator) must be refused at handshake.
	info := coord.Info()
	info.SuiteHash = "0000000000000000"
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lease.WriteJSON(w, http.StatusOK, info)
	}))
	defer liar.Close()
	err = RunWorker(context.Background(), WorkerConfig{
		Addr: strings.TrimPrefix(liar.URL, "http://"), ID: "w", Poll: time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "suite fingerprint mismatch") {
		t.Fatalf("worker accepted a mismatched handshake: %v", err)
	}
}

// TestCheckpointTornTail covers the SIGKILLed-coordinator contract: a
// checkpoint with a torn final line still resumes, skipping (and counting)
// only the torn line; a fully-recorded checkpoint resumes to a complete
// campaign with no workers at all.
func TestCheckpointTornTail(t *testing.T) {
	_, _, want := baseline(t)
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")

	// Record a full campaign, then tear the tail the way a crash mid-write
	// would.
	res := runCampaign(t, CoordinatorConfig{Spec: testSpec(), ShardSize: 4, CheckpointPath: ckpt},
		2, nil, nil)
	if got := Fingerprint(res.census, res.viol); got != want {
		t.Fatalf("recorded campaign diverges:\n%s\nvs\n%s", want, got)
	}
	f, err := os.OpenFile(ckpt, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"shard","payload":{"shard":3,"wor`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if st.Skipped != 1 || len(st.Payloads) != res.stats.Shards {
		t.Fatalf("torn checkpoint: skipped=%d payloads=%d want skipped=1 payloads=%d",
			st.Skipped, len(st.Payloads), res.stats.Shards)
	}

	// Resume against the torn file: every shard comes back from disk, the
	// campaign completes with zero workers, and the census round-tripped
	// through JSON still matches serial byte for byte.
	coord, err := NewCoordinator(CoordinatorConfig{Spec: testSpec(), ShardSize: 4, CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	census, viol, err := coord.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := Fingerprint(census, viol); got != want {
		t.Fatalf("resumed census diverges from serial:\n--- serial ---\n%s--- resumed ---\n%s", want, got)
	}
	if st := coord.Stats(); st.Resumed != st.Shards {
		t.Fatalf("stats: %+v", st)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRejectsForeignCampaign: resuming with a different suite or
// shard geometry must refuse loudly, never merge.
func TestCheckpointRejectsForeignCampaign(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
	spec := testSpec()
	spec.Max = 8
	coord, err := NewCoordinator(CoordinatorConfig{Spec: spec, ShardSize: 4, CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	coord.Close()

	other := testSpec()
	other.Max = 12 // different suite prefix -> different fingerprint
	if _, err := NewCoordinator(CoordinatorConfig{Spec: other, ShardSize: 4, CheckpointPath: ckpt}); err == nil ||
		!strings.Contains(err.Error(), "suite fingerprint mismatch") {
		t.Fatalf("foreign suite accepted: %v", err)
	}
	if _, err := NewCoordinator(CoordinatorConfig{Spec: spec, ShardSize: 2, CheckpointPath: ckpt}); err == nil ||
		!strings.Contains(err.Error(), "shard geometry mismatch") {
		t.Fatalf("foreign geometry accepted: %v", err)
	}
}

// TestSpecWorkersIgnoredButKept: the deprecated Workers fields select nothing
// — 1 and 4 give the same fingerprint — yet the spec's "workers" key still
// rides in its JSON, so a spec written by a build that had in-engine workers
// decodes to the campaign ID that build computed and its -resume checkpoint
// stays valid.
func TestSpecWorkersIgnoredButKept(t *testing.T) {
	_, _, want := baseline(t) // Workers: 1
	spec := testSpec()
	spec.Workers = 4
	census, viol, err := serialRun(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := Fingerprint(census, viol); got != want {
		t.Errorf("Workers=4 fingerprint differs from Workers=1:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// testSpec as the parent of the Workers removal marshalled it, and the
	// campaign ID that build derived from it.
	const wire = `{"fs":"nova","bugs":"all","suite":"seq1","max":24,"cap":2,"workers":1,` +
		`"check_timeout_ns":0,"exhaustive_limit":0,"stats":true}`
	var back Spec
	if err := json.Unmarshal([]byte(wire), &back); err != nil {
		t.Fatal(err)
	}
	if back != testSpec() {
		t.Fatalf("decoded spec %+v, want %+v", back, testSpec())
	}
	if b, _ := json.Marshal(back); string(b) != wire {
		t.Errorf("spec re-encodes as %s, want %s", b, wire)
	}
	coord, err := NewCoordinator(CoordinatorConfig{Spec: back})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if id := coord.Info().CampaignID; id != "c08cd1578b3d5ee8e" {
		t.Errorf("campaign ID %s, want c08cd1578b3d5ee8e", id)
	}
}
