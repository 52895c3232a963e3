package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"chipmunk/internal/core"
	"chipmunk/internal/harness"
	"chipmunk/internal/lease"
	"chipmunk/internal/obs"
	"chipmunk/internal/workload"
)

// TestStatusSnapshot drives the lease state machine directly and checks the
// campaign's own status fields track it: identity, the shard map under its
// campaign key, credited plus live states, violations, and per-worker
// credits. The owner-independent view is lease.TestShellStatusView's.
func TestStatusSnapshot(t *testing.T) {
	spec := testSpec()
	spec.Max = 56 // two units
	coord, err := NewCoordinator(CoordinatorConfig{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	hash := coord.Info().SuiteHash

	st := coord.Status()
	if st.Shards != 2 || st.Pending != 2 || st.ShardMap != ".." {
		t.Fatalf("fresh status: %+v", st)
	}
	if st.SuiteHash != hash || st.Workloads != 56 || st.ShardSize != minUnit || st.CampaignID != coord.Info().CampaignID {
		t.Fatalf("status identity: %+v", st)
	}

	if l, err := coord.Lease(LeaseRequest{Worker: "w0", SuiteHash: hash, Cut: coord.Info().Cut}); err != nil || l.Shard != 0 {
		t.Fatalf("lease: %+v, %v", l, err)
	}
	if _, err := coord.Heartbeat(HeartbeatRequest{Worker: "w0", Shard: 0, SuiteHash: hash, StatesChecked: 7}); err != nil {
		t.Fatal(err)
	}
	if l, err := coord.Lease(LeaseRequest{Worker: "w1", SuiteHash: hash, Cut: coord.Info().Cut}); err != nil || l.Shard != 1 {
		t.Fatalf("lease: %+v, %v", l, err)
	}
	if cr, err := coord.Credit(&ShardPayload{
		Shard: 1, Worker: "w1", SuiteHash: hash,
		Census: core.Census{Workloads: 1, StatesChecked: 100, Violations: 2},
	}); err != nil || !cr.Accepted {
		t.Fatalf("credit: %+v, %v", cr, err)
	}

	st = coord.Status()
	if st.ShardMap != "r#" || st.Leased != 1 || st.Done != 1 || st.Quarantined != 0 {
		t.Fatalf("status: %+v", st)
	}
	if st.StatesChecked != 107 || st.Violations != 2 { // 100 credited + 7 in flight
		t.Fatalf("states checked %d, violations %d; want 107, 2", st.StatesChecked, st.Violations)
	}
	if st.StatesPerSec <= 0 || st.ETASec <= 0 {
		t.Fatalf("rate/ETA not derived: %+v", st)
	}
	if len(st.Workers) != 2 || st.Workers[1].ID != "w1" || st.Workers[1].ShardsDone != 1 {
		t.Fatalf("workers: %+v", st.Workers)
	}
}

// TestStatusRateCountsCreditedOnly: states_per_sec divides the credited
// states by wall-clock. A shard still in flight adds its heartbeat progress
// to states_checked but nothing to the rate.
func TestStatusRateCountsCreditedOnly(t *testing.T) {
	spec := testSpec()
	spec.Max = 4
	coord, err := NewCoordinator(CoordinatorConfig{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	hash := coord.Info().SuiteHash
	if l, err := coord.Lease(LeaseRequest{Worker: "w0", SuiteHash: hash, Cut: coord.Info().Cut}); err != nil || l.Status != LeaseGranted {
		t.Fatalf("lease: %+v, %v", l, err)
	}
	if hb, err := coord.Heartbeat(HeartbeatRequest{Worker: "w0", Shard: 0, SuiteHash: hash, StatesChecked: 50}); err != nil || !hb.Extended {
		t.Fatalf("heartbeat: %+v, %v", hb, err)
	}
	if st := coord.Status(); st.StatesChecked != 50 || st.StatesPerSec != 0 {
		t.Fatalf("states_checked %d, states_per_sec %v; want 50, 0", st.StatesChecked, st.StatesPerSec)
	}
}

// TestStatusHTTPSurface serves the read-only endpoints over a real listener
// and checks what the campaign puts on them: its JSON keys, its dashboard
// wording, and its merged census on the /debug/metrics scrape.
func TestStatusHTTPSurface(t *testing.T) {
	spec := testSpec()
	spec.Max = 1 // one unit
	coord, err := NewCoordinator(CoordinatorConfig{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	hash := coord.Info().SuiteHash
	col := obs.New()
	col.Inc(obs.CtrStatesChecked)
	snap := col.Snapshot()
	if cr, err := coord.Credit(&ShardPayload{
		Shard: 0, Worker: "w0", SuiteHash: hash,
		Census: core.Census{Workloads: 4, StatesChecked: 1, Obs: &snap},
	}); err != nil || !cr.Accepted || !cr.Done {
		t.Fatalf("credit: %+v, %v", cr, err)
	}
	srv := httptest.NewServer(coord)
	defer srv.Close()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s (%v)", path, resp.Status, err)
		}
		return string(body)
	}

	body := get(lease.PathStatus)
	var st CampaignStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("status does not parse: %v\n%s", err, body)
	}
	for _, key := range []string{`"campaign_id"`, `"shard_map":"#"`, `"states_per_sec"`, `"suite_hash"`} {
		if !strings.Contains(body, key) {
			t.Fatalf("status lacks %s:\n%s", key, body)
		}
	}
	body = get(lease.PathDash)
	for _, want := range []string{coord.Info().CampaignID, "1/1 shards done", "shard map", "0 violations"} {
		if !strings.Contains(body, want) {
			t.Fatalf("dash missing %q:\n%s", want, body)
		}
	}
	if body = get("/debug/metrics"); !strings.Contains(body, "chipmunk_states_checked_total 1\n") {
		t.Fatalf("metrics missing the credited census counter:\n%s", body)
	}
}

// TestWorkerWatchdogJournal wedges every engine call so the worker's shard
// watchdog fires on each dispatch attempt: the journal must record one
// "shard-watchdog" event per attempt plus the shard spans, and the
// campaign must complete degraded with the shard quarantined — never hung.
func TestWorkerWatchdogJournal(t *testing.T) {
	spec := testSpec()
	spec.Max = 1 // one unit
	var buf bytes.Buffer
	jr := obs.NewJournal(&buf)
	res := runCampaign(t, CoordinatorConfig{Spec: spec, LeaseTTL: time.Second},
		1, nil, func(i int, wc *WorkerConfig) {
			wc.Journal = jr
			wc.ShardTimeout = 30 * time.Millisecond
			wc.runEngine = func(ctx context.Context, cfg core.Config, slice []workload.Workload, lease LeaseResponse, jobs int) (*harness.Census, []core.Violation, error) {
				<-ctx.Done()
				return nil, nil, ctx.Err()
			}
		})
	if res.workerErrs[0] != nil {
		t.Fatalf("worker: %v", res.workerErrs[0])
	}
	if res.stats.ShardsQuarantined != 1 || res.stats.Done != 0 {
		t.Fatalf("stats: %+v", res.stats)
	}
	if err := jr.Flush(); err != nil {
		t.Fatal(err)
	}
	events, skipped, err := obs.ReadJournal(&buf)
	if err != nil || skipped != 0 {
		t.Fatalf("journal read: err=%v skipped=%d", err, skipped)
	}
	watchdogs, shardSpans := 0, 0
	for _, e := range events {
		switch {
		case e.Type == "shard-watchdog":
			watchdogs++
			if e.Rank != 0 || e.Worker != "w0" || !strings.Contains(e.Detail, "shard watchdog") {
				t.Fatalf("watchdog event: %+v", e)
			}
		case e.Type == "span" && e.Name == "shard":
			shardSpans++
			if e.Trace == "" || e.Span == "" {
				t.Fatalf("shard span missing IDs: %+v", e)
			}
		}
	}
	if watchdogs != lease.DefaultRetries {
		t.Fatalf("%d shard-watchdog events, want %d (one per dispatch attempt)", watchdogs, lease.DefaultRetries)
	}
	if shardSpans != lease.DefaultRetries {
		t.Fatalf("%d shard spans, want %d", shardSpans, lease.DefaultRetries)
	}
}

// TestWorkerHeartbeatRefusedJournal refuses a worker's first heartbeat at
// the wire: the worker must journal a "heartbeat-refused" event, abandon
// the shard, and the campaign must still complete once the lease expires
// and the shard re-runs.
func TestWorkerHeartbeatRefusedJournal(t *testing.T) {
	spec := testSpec()
	spec.Max = 4
	coord, err := NewCoordinator(CoordinatorConfig{Spec: spec, LeaseTTL: 120 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var refused atomic.Bool
	srv, err := ListenAndServe("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathHeartbeat && refused.CompareAndSwap(false, true) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"extended":false}`)
			return
		}
		coord.ServeHTTP(w, r)
	}))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	jr := obs.NewJournal(&buf)
	var calls atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(context.Background(), WorkerConfig{
			Addr: srv.Addr(), ID: "w0", Journal: jr,
			runEngine: func(ctx context.Context, cfg core.Config, slice []workload.Workload, lease LeaseResponse, jobs int) (*harness.Census, []core.Violation, error) {
				if calls.Add(1) == 1 {
					// First attempt wedges until the refused heartbeat
					// cancels it; later attempts succeed immediately.
					<-ctx.Done()
					return nil, nil, ctx.Err()
				}
				return &harness.Census{Workloads: len(slice)}, nil, nil
			},
		})
	}()
	if _, _, err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}
	srv.Close()
	if st := coord.Stats(); st.Done != st.Shards || st.ShardsQuarantined != 0 {
		t.Fatalf("campaign did not recover: %+v", st)
	}
	if err := jr.Flush(); err != nil {
		t.Fatal(err)
	}
	events, skipped, err := obs.ReadJournal(&buf)
	if err != nil || skipped != 0 {
		t.Fatalf("journal read: err=%v skipped=%d", err, skipped)
	}
	refusals := 0
	for _, e := range events {
		if e.Type == "heartbeat-refused" {
			refusals++
			if e.Worker != "w0" || e.Rank != 0 {
				t.Fatalf("refusal event: %+v", e)
			}
		}
	}
	if refusals != 1 {
		t.Fatalf("%d heartbeat-refused events, want 1", refusals)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
}
