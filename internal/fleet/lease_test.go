package fleet

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chipmunk/internal/campaign"
	"chipmunk/internal/obs"
)

// soakDriver drives a fleet coordinator through its public methods with
// fabricated results — no engine, no HTTP — so the lease paths that need a
// worker to misbehave on cue are deterministic.
type soakDriver struct {
	t     *testing.T
	coord *Coordinator
	hash  string
}

func newSoakDriver(t *testing.T, cc CoordinatorConfig) *soakDriver {
	t.Helper()
	cc.Spec = fuzzTestSpec() // 8 rounds of 15 execs, generations of 4
	coord, err := NewCoordinator(cc)
	if err != nil {
		t.Fatal(err)
	}
	return &soakDriver{t: t, coord: coord, hash: coord.Info().SuiteHash}
}

func (d *soakDriver) lease(worker string) FuzzLeaseResponse {
	d.t.Helper()
	l, err := d.coord.Lease(FuzzLeaseRequest{Worker: worker, SpecHash: d.hash})
	if err != nil {
		d.t.Fatalf("lease %s: %v", worker, err)
	}
	return l
}

func (d *soakDriver) credit(p *FuzzResult) campaign.CreditResponse {
	d.t.Helper()
	p.SpecHash = d.hash
	cr, err := d.coord.Credit(p)
	if err != nil {
		d.t.Fatalf("credit %+v: %v", p, err)
	}
	return cr
}

// runRounds leases and credits healthy rounds until the next lease is not
// round lo..hi-1 in order.
func (d *soakDriver) runRounds(lo, hi int, viols ...FuzzViolation) {
	d.t.Helper()
	for r := lo; r < hi; r++ {
		if l := d.lease("w0"); l.Status != LeaseRound || l.Round != r {
			d.t.Fatalf("want a lease for round %d, got %+v", r, l)
		}
		p := &FuzzResult{Kind: ResultRound, Worker: "w0", Round: r, Execs: 15}
		if r == lo {
			p.Violations = viols
		}
		if cr := d.credit(p); !cr.Accepted {
			d.t.Fatalf("round %d not credited: %+v", r, cr)
		}
	}
}

func checkpointHas(t *testing.T, path, line string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), line+"\n") {
		t.Fatalf("checkpoint lacks %s:\n%s", line, data)
	}
}

// TestRoundDropped: a round whose attempts all fail — one result rejected at
// the wire, one engine error — is dropped after Retries, citing the engine
// error; the drop is in the checkpoint, its generation folds without it, the
// soak completes degraded, and a resume — off a checkpoint with a torn tail,
// which costs exactly the torn record — carries the drop forward instead of
// re-leasing the round.
func TestRoundDropped(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	d := newSoakDriver(t, CoordinatorConfig{Retries: 2, CheckpointPath: ckpt})

	if l := d.lease("w0"); l.Status != LeaseRound || l.Round != 0 {
		t.Fatalf("first lease: %+v", l)
	}
	if hb, err := d.coord.Heartbeat(FuzzHeartbeat{Worker: "w0", SpecHash: d.hash, Kind: ResultRound, ID: 0}); err != nil || !hb.Extended {
		t.Fatalf("holder's heartbeat refused: %+v, %v", hb, err)
	}
	if hb, err := d.coord.Heartbeat(FuzzHeartbeat{Worker: "w1", SpecHash: d.hash, Kind: ResultRound, ID: 0}); err != nil || hb.Extended {
		t.Fatalf("a stranger extended round 0's lease: %+v, %v", hb, err)
	}
	d.coord.RejectResult(ResultRound, 0, "w1", "checksum mismatch") // not the holder: counted, not an attempt
	d.coord.RejectResult(ResultRound, 0, "w0", "checksum mismatch") // attempt 1
	if st := d.coord.Stats(); st.BadPayloads != 2 || st.Redispatched != 1 || st.RoundsDropped != 0 {
		t.Fatalf("after one wire reject: %+v", st)
	}
	if l := d.lease("w0"); l.Round != 0 {
		t.Fatalf("failed round not re-dispatched first: %+v", l)
	}
	cr := d.credit(&FuzzResult{Kind: ResultRound, Worker: "w0", Round: 0, Err: "engine: boom"}) // attempt 2
	if cr.Accepted || !cr.Quarantined {
		t.Fatalf("second failed attempt did not drop the round: %+v", cr)
	}
	if late := d.credit(&FuzzResult{Kind: ResultRound, Worker: "w0", Round: 0, Execs: 15}); late.Accepted || !late.Duplicate {
		t.Fatalf("late healthy result for the dropped round credited: %+v", late)
	}
	// ("round":0 is omitted on disk; a record without it resumes as round 0.)
	checkpointHas(t, ckpt, `{"type":"drop","worker":"w0","err":"engine: boom","attempts":2}`)

	d.runRounds(1, 4)
	if st := d.coord.Stats(); st.Generations != 1 || st.RoundsDropped != 1 || st.RoundsCredited != 3 {
		t.Fatalf("generation 0 did not fold around the drop: %+v", st)
	}
	if err := d.coord.Close(); err != nil { // SIGKILL model: the checkpoint is all that survives
		t.Fatal(err)
	}
	intact, err := LoadCheckpoint(ckpt)
	if err != nil || intact.Skipped != 0 || len(intact.Rounds) != 3 || len(intact.Drops) != 1 {
		t.Fatalf("intact checkpoint: %+v, %v", intact, err)
	}
	tearFile(t, ckpt, `{"type":"round","payload":{"kind":"round","wor`)
	torn, err := LoadCheckpoint(ckpt)
	if err != nil || torn.Skipped != 1 || len(torn.Rounds) != 3 || len(torn.Drops) != 1 {
		t.Fatalf("torn checkpoint: %+v, %v", torn, err)
	}

	r := newSoakDriver(t, CoordinatorConfig{Retries: 2, CheckpointPath: ckpt})
	if st := r.coord.Stats(); st.Resumed != 3 || st.RoundsDropped != 1 || st.Generations != 1 {
		t.Fatalf("resume: %+v", st)
	}
	r.runRounds(4, 8) // round 0 is never leased again
	census, err := r.coord.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !r.coord.Degraded() || census.RoundsDropped != 1 || census.RoundsCredited != 7 || census.Execs != 7*15 {
		t.Fatalf("soak should complete degraded, one round short: degraded=%v census=%+v", r.coord.Degraded(), census)
	}
	if st := r.coord.Status(); st.RoundMap != "X###|####" || st.Dropped != 1 {
		t.Fatalf("status: %+v", st)
	}
	if err := r.coord.Close(); err != nil {
		t.Fatal(err)
	}
}

func tearFile(t *testing.T, path, torn string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(torn); err != nil {
		t.Fatal(err)
	}
}

// TestMinimizeTaskDropped: a minimization task that spends its attempts
// resolves done-unverified — it stops gating completion, the soak is not
// degraded, the census keeps the unminimized reproducer — and a resume does
// not lease it again.
func TestMinimizeTaskDropped(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	d := newSoakDriver(t, CoordinatorConfig{Retries: 2, CheckpointPath: ckpt})
	v := FuzzViolation{Kind: "atomicity-violation", FS: "nova", Prefix: "mkdir A", Workload: "w", Text: "mkdir A\nsync\n"}
	d.runRounds(0, 4, v) // generation 0 folds and opens the cluster's task

	for attempt := 1; attempt <= 2; attempt++ {
		l := d.lease("w0") // minimization leases ahead of generation 1's rounds
		if l.Status != LeaseMinimize || l.MinID != 0 || l.MinCluster != v.ClusterKey() || l.MinText != v.Text {
			t.Fatalf("attempt %d: want the minimization lease, got %+v", attempt, l)
		}
		cr := d.credit(&FuzzResult{Kind: ResultMinimize, Worker: "w0", MinID: 0, MinCluster: l.MinCluster, Err: "engine: boom"})
		if cr.Accepted || cr.Quarantined != (attempt == 2) {
			t.Fatalf("attempt %d: %+v", attempt, cr)
		}
	}
	checkpointHas(t, ckpt, `{"type":"mindrop","min_cluster":"atomicity-violation|nova|mkdir A"}`)
	if st := d.coord.Stats(); st.MinTasks != 1 || st.MinDone != 1 || st.MinDropped != 1 || st.Redispatched != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if err := d.coord.Close(); err != nil {
		t.Fatal(err)
	}

	r := newSoakDriver(t, CoordinatorConfig{Retries: 2, CheckpointPath: ckpt})
	r.runRounds(4, 8) // the dropped task is not leased again
	census, err := r.coord.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.coord.Degraded() {
		t.Fatal("a dropped minimization task degraded the soak")
	}
	if st := r.coord.Stats(); st.MinDone != 1 || st.MinDropped != 1 {
		t.Fatalf("resumed stats: %+v", st)
	}
	if len(census.Clusters) != 1 || census.Clusters[0].Reproducer != v.Text || census.Clusters[0].Minimized ||
		census.MinTasks != 1 || census.MinVerified != 0 {
		t.Fatalf("census should keep the unminimized reproducer: %+v", census)
	}
	if err := r.coord.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStatusHTTPSurface is the fleet twin of the campaign test: the three
// read-only endpoints over a real listener, with the lease tables' series on
// the /debug/metrics scrape next to the merged collectors'.
func TestStatusHTTPSurface(t *testing.T) {
	d := newSoakDriver(t, CoordinatorConfig{})
	d.runRounds(0, 1)
	d.lease("w0")
	srv := httptest.NewServer(d.coord)
	defer srv.Close()
	get := func(path string) (string, string) {
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
		return string(body), resp.Header.Get("Content-Type")
	}
	if body, ctype := get(campaign.PathStatus); !strings.Contains(ctype, "application/json") ||
		!strings.Contains(body, `"round_map":"#r..|...."`) || !strings.Contains(body, `"execs":15`) {
		t.Fatalf("status (%s): %s", ctype, body)
	}
	if body, ctype := get(campaign.PathDash); !strings.Contains(ctype, "text/html") || !strings.Contains(body, "1/8 rounds done") {
		t.Fatalf("dash (%s): %s", ctype, body)
	}
	body, ctype := get("/debug/metrics")
	if ctype != obs.MetricsContentType {
		t.Fatalf("metrics content type %q", ctype)
	}
	for _, series := range []string{
		"chipmunk_fuzz_execs_total 15\n",
		"# TYPE chipmunk_lease_granted_total counter\nchipmunk_lease_granted_total 2\n",
		"# TYPE chipmunk_lease_units_leased gauge\nchipmunk_lease_units_leased 1\n",
	} {
		if !strings.Contains(body, series) {
			t.Fatalf("metrics missing %q:\n%s", series, body)
		}
	}
}
