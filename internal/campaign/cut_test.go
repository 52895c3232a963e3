package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chipmunk/internal/ace"
	"chipmunk/internal/core"
	"chipmunk/internal/harness"
	"chipmunk/internal/lease"
	"chipmunk/internal/obs"
	"chipmunk/internal/workload"
)

// TestCampaignMemoOutlivesLease: a worker keeps one prefix memo across its
// leases, so a campaign checks what one serial harness.Run checks. With one
// worker the merged guest-mount and memo-served counts equal serial's
// exactly; with two, lease affinity keeps each worker's memo on a stretch of
// the trie, and the mounts stay within 2% of serial.
func TestCampaignMemoOutlivesLease(t *testing.T) {
	spec := Spec{FS: "nova", Bugs: "all", Suite: "seq2", Max: 1344, Cap: 2, Workers: 1, Stats: true}
	serial, serialViol, err := serialRun(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := Fingerprint(serial, serialViol)
	mounts := func(c *obs.Snapshot) int64 { return c.Stage(obs.StageMount).Count }
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			res := runCampaign(t, CoordinatorConfig{Spec: spec}, n, nil, nil)
			if got := Fingerprint(res.census, res.viol); got != want {
				t.Fatalf("census diverges from serial:\n--- serial ---\n%s--- campaign ---\n%s", want, got)
			}
			got, ref := mounts(res.census.Obs), mounts(serial.Obs)
			served, refServed := res.census.Obs.Count(obs.CtrMemoServed), serial.Obs.Count(obs.CtrMemoServed)
			t.Logf("%d units: mounts %d (serial %d), memo-served %d (serial %d)",
				res.stats.Shards, got, ref, served, refServed)
			if n == 1 && (got != ref || served != refServed) {
				t.Fatalf("one worker: mounts %d, memo-served %d; serial %d, %d", got, served, ref, refServed)
			}
			if float64(got) > 1.02*float64(ref) {
				t.Fatalf("%d workers mounted %d images, over 1.02x serial's %d", n, got, ref)
			}
		})
	}
}

// TestSuiteCut: every built-in suite cuts into units that cover it, none over
// the cut's bound; seq2's 3,136 workloads into 56 units, against the 98
// 32-workload index shards campaigns leased before the trie cut, and no
// suite, small ones included, into more units than it had index shards. A
// suite with two workloads of one name is refused: the fold orders ledgers
// by name.
func TestSuiteCut(t *testing.T) {
	for _, name := range []string{"seq1", "seq1dax", "seq2", "seq2dax", "seq3m", "kv", "kv-smoke"} {
		suite, err := ace.SuiteByName(name)
		if err != nil {
			t.Fatal(err)
		}
		index, err := suiteIndex(suite)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cut, _ := suiteCut(suite)
		size := unitSize(len(suite))
		seen := make([]bool, len(suite))
		for u := 0; u < cut.Size(); u++ {
			unit := cut.Unit(suite, u)
			if len(unit) < 1 || len(unit) > size {
				t.Fatalf("%s: unit %d has %d workloads, want 1..%d", name, u, len(unit), size)
			}
			for _, w := range unit {
				seen[index[w.Name]] = true
			}
		}
		for i, ok := range seen {
			if !ok || index[suite[i].Name] != i {
				t.Fatalf("%s: workload %d unleased or misindexed", name, i)
			}
		}
		if name == "seq2" && cut.Size() != 56 {
			t.Fatalf("seq2 cuts into %d units, want 56", cut.Size())
		}
		if shards := (len(suite) + 31) / 32; cut.Size() > shards {
			t.Fatalf("%s cuts into %d units, more than its %d index shards", name, cut.Size(), shards)
		}
	}
	dup := []workload.Workload{{Name: "a"}, {Name: "b"}, {Name: "a"}}
	if _, err := suiteIndex(dup); !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("duplicate names accepted: %v", err)
	}
}

// TestIndexShardWorkerRefused: a worker built before the trie cut passes
// the handshake, since the suite fingerprint is unchanged, but reads a
// lease's bounds as suite indices (shardRange over SpecInfo.ShardSize): on
// seq1 it would run other workloads than the unit's. Its lease requests carry
// no cut, so the coordinator refuses them before granting anything, with the
// HTTP 412 that such a build does not retry. This build retries a 412, as a
// cut damaged in flight draws one too.
func TestIndexShardWorkerRefused(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Spec: Spec{FS: "nova", Bugs: "all", Suite: "seq1", Cap: 2, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := httptest.NewServer(coord)
	defer srv.Close()
	info, err := FetchSpec(context.Background(), srv.Listener.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := info.Spec.BuildSuite()
	if err != nil {
		t.Fatal(err)
	}
	if workload.FormatSuiteHash(workload.SuiteHash(suite)) != info.SuiteHash {
		t.Fatal("the older build's handshake check fails; this test no longer covers it")
	}
	byName := func(a, b workload.Workload) bool { return a.Name == b.Name }
	if unit := coord.cut.Unit(suite, 0); slices.EqualFunc(unit, suite[:len(unit)], byName) {
		t.Fatal("unit 0 is a suite prefix; an index-shard worker would run it right")
	}
	old := fmt.Sprintf(`{"worker":"old","suite_hash":%q}`, info.SuiteHash)
	resp, err := http.Post(srv.URL+PathLease, "application/json", strings.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPreconditionFailed || !strings.Contains(string(body), "older build") {
		t.Fatalf("older build's lease request: %s %s", resp.Status, body)
	}
	var l LeaseResponse
	err = lease.PostJSON(context.Background(), &http.Client{}, srv.URL+PathLease, json.RawMessage(old), &l, 50*time.Millisecond)
	if err == nil || errors.Is(err, lease.ErrCoordinatorGone) || !strings.Contains(err.Error(), "older build") {
		t.Fatalf("a 412 on every attempt must end as that rejection, not as a gone coordinator: %v", err)
	}
	if st := coord.Stats(); st.Granted != 0 || st.Rejected < 2 {
		t.Fatalf("stats after the cut-less requests: %+v", st)
	}
}

// TestShardSizeIgnoredButKept: the deprecated CoordinatorConfig.ShardSize
// selects nothing — the bench module still sets it — so coordinators that
// differ only in it serve the same handshake and grant the same leases.
func TestShardSizeIgnoredButKept(t *testing.T) {
	spec := testSpec()
	var infos []SpecInfo
	var grants [][]LeaseResponse
	for _, size := range []int{0, 4} {
		coord, err := NewCoordinator(CoordinatorConfig{Spec: spec, ShardSize: size, LeaseTTL: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		infos = append(infos, coord.Info())
		var g []LeaseResponse
		for _, w := range []string{"w0", "w1", "w2", "w0"} {
			l, err := coord.Lease(LeaseRequest{Worker: w, SuiteHash: coord.Info().SuiteHash, Cut: coord.Info().Cut})
			if err != nil {
				t.Fatal(err)
			}
			g = append(g, l)
		}
		grants = append(grants, g)
		coord.Close()
	}
	if infos[0] != infos[1] {
		t.Errorf("ShardSize moved the handshake: %+v vs %+v", infos[0], infos[1])
	}
	if !reflect.DeepEqual(grants[0], grants[1]) {
		t.Errorf("ShardSize moved the leases: %+v vs %+v", grants[0], grants[1])
	}
}

// TestWireFaultCorruptLeaseDiscarded: a lease response damaged in flight — here
// the first three grants name the next unit over, with the granted unit's
// bounds — fails the worker's geometry check against its own cut and is
// discarded; re-polling gets the held unit back (lease.Table.HeldBy). No
// engine call ever sees a lease whose bounds are not its unit's, and the
// census still matches serial, under the -wire-faults injector too. (It
// mangles request bodies only, so a proxy behind it damages the responses.)
func TestWireFaultCorruptLeaseDiscarded(t *testing.T) {
	_, _, want := baseline(t)
	// A bit flipped in a lease request's worker name leases a unit to a
	// phantom; a short TTL hands it back quickly.
	coord, err := NewCoordinator(CoordinatorConfig{Spec: testSpec(), LeaseTTL: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var corrupted atomic.Int64
	proxy := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != PathLease {
			coord.ServeHTTP(w, r)
			return
		}
		var req LeaseRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			lease.WriteJSONError(w, http.StatusBadRequest, err.Error())
			return
		}
		l, err := coord.Lease(req)
		if err != nil {
			lease.WriteJSONError(w, http.StatusConflict, err.Error())
			return
		}
		if l.Status == LeaseGranted && l.Shard+1 < coord.Info().Shards && corrupted.Load() < 3 {
			corrupted.Add(1)
			l.Shard++
		}
		lease.WriteJSON(w, http.StatusOK, l)
	})
	wrapped, _ := WrapWireFaults(proxy, DefaultWireFaults(7))
	srv, err := ListenAndServe("127.0.0.1:0", wrapped)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var ran []LeaseResponse
	werr := RunWorker(context.Background(), WorkerConfig{
		Addr: srv.Addr(), ID: "w0",
		runEngine: func(ctx context.Context, cfg core.Config, unit []workload.Workload, l LeaseResponse, jobs int) (*harness.Census, []core.Violation, error) {
			mu.Lock()
			ran = append(ran, l)
			mu.Unlock()
			return harness.Run(ctx, cfg, unit, harness.WithWorkers(jobs))
		},
	})
	if werr != nil {
		t.Fatalf("worker: %v", werr)
	}
	census, viol, err := coord.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if corrupted.Load() != 3 {
		t.Fatalf("corrupted %d lease responses, want 3", corrupted.Load())
	}
	for _, l := range ran {
		if l.Start != coord.cut.Units[l.Shard] || l.End != coord.cut.Units[l.Shard+1] {
			t.Fatalf("engine ran a corrupt lease: unit %d [%d,%d), the cut's is [%d,%d)",
				l.Shard, l.Start, l.End, coord.cut.Units[l.Shard], coord.cut.Units[l.Shard+1])
		}
	}
	if got := Fingerprint(census, viol); got != want {
		t.Fatalf("census diverges from serial:\n--- serial ---\n%s--- campaign ---\n%s", want, got)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
}
