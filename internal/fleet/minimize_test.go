package fleet

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"chipmunk/internal/core"
	"chipmunk/internal/fuzz"
	"chipmunk/internal/lease"
	"chipmunk/internal/workload"
)

// minOutcome is what the census says about one cluster's reproducer.
type minOutcome struct {
	reproducer          string
	minimized, verified bool
}

// referenceMinimize is minimization without shared units: each task's
// reproducer shrunk by fuzz.Minimize with no memo, re-run once, and trusted
// only if the re-run trips the task's own (kind, FS).
func referenceMinimize(t *testing.T, cfg core.Config, budget int, tasks []minTask) map[string]minOutcome {
	t.Helper()
	ctx := context.Background()
	out := map[string]minOutcome{}
	for _, m := range tasks {
		w, err := workload.Parse(m.text)
		if err != nil {
			t.Fatal(err)
		}
		minimized, _, err := fuzz.Minimize(ctx, nil, cfg, w, budget)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.RunContext(ctx, cfg, minimized)
		if err != nil {
			t.Fatal(err)
		}
		o := minOutcome{reproducer: m.text}
		kind, fs := ClusterKindFS(m.cluster)
		for _, v := range res.Violations {
			if v.Kind.String() == kind && v.FS == fs {
				o = minOutcome{reproducer: workload.Format(minimized), minimized: true, verified: true}
				break
			}
		}
		out[m.cluster] = o
	}
	return out
}

// TestMinimizeOncePerReproducer: the soak leases one minimization unit per
// distinct reproducer text, units do mix clusters of different (kind, FS),
// and every cluster's census entry is what minimizing and re-verifying it
// on its own gives. The soak runs the benchmark soak's bugs: with bugs 4 and
// 5 alone no reproducer is shared by clusters of different (kind, FS).
func TestMinimizeOncePerReproducer(t *testing.T) {
	spec := fuzzTestSpec()
	spec.Bugs = "4,5,6,8"
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	_, cfg, err := opts.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]minOutcome
	for _, n := range []int{1, 2} {
		var mu sync.Mutex
		leases := 0
		res := runSoak(t, CoordinatorConfig{Spec: spec}, n, nil, func(_ int, wc *WorkerConfig) {
			wc.OnLease = func(l FuzzLeaseResponse) {
				if l.Status == LeaseMinimize {
					mu.Lock()
					leases++
					mu.Unlock()
				}
			}
		})
		c := res.coord
		texts := map[string]bool{}
		for _, m := range c.minTasks {
			texts[m.text] = true
		}
		if leases != len(texts) || len(c.mins.Slots) != len(texts) || len(texts) >= len(c.minTasks) {
			t.Fatalf("%d workers: %d minimize leases, %d units for %d tasks over %d distinct texts",
				n, leases, len(c.mins.Slots), len(c.minTasks), len(texts))
		}
		if want == nil {
			want = referenceMinimize(t, cfg, spec.MinExecs, c.minTasks)
		}
		// Some unit must mix clusters that verify differently, or settling
		// every task by its lead's verdict would pass too.
		mixed := false
		for _, m := range c.minTasks {
			lead := c.leadLocked(m.unit).cluster
			kind, fs := ClusterKindFS(lead)
			if k, f := ClusterKindFS(m.cluster); (k != kind || f != fs) && want[m.cluster].verified != want[lead].verified {
				mixed = true
			}
		}
		if !mixed {
			t.Fatalf("%d workers: no unit mixes clusters of different (kind, FS) that verify differently", n)
		}
		if len(res.census.Clusters) != len(want) {
			t.Fatalf("%d workers: %d census clusters, %d tasks", n, len(res.census.Clusters), len(want))
		}
		for _, b := range res.census.Clusters {
			key := b.Kind + "|" + b.FS + "|" + b.Prefix
			if got := (minOutcome{b.Reproducer, b.Minimized, b.Verified}); got != want[key] {
				t.Errorf("%d workers: cluster %q:\n got %+v\nwant %+v", n, key, got, want[key])
			}
		}
	}
}

// TestMinimizeNameIndependentOfUnit: an unnamed reproducer is named after its
// text, so leasing it under two unit ids minimizes it to the same form.
func TestMinimizeNameIndependentOfUnit(t *testing.T) {
	spec := fuzzTestSpec()
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	_, cfg, err := opts.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	// A violating workload of the soak's first round, its name dropped.
	node, err := NewNode(cfg, RoundSeed(spec.FuzzSeed, 0), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := node.RunRound(context.Background(), spec.RoundExecs)
	if err != nil || len(delta.Violations) == 0 {
		t.Fatalf("round 0: %d violations, %v", len(delta.Violations), err)
	}
	w, err := workload.Parse(delta.Violations[0].Text)
	if err != nil {
		t.Fatal(err)
	}
	w.Name = ""
	text := workload.Format(w)
	var got []string
	for _, id := range []int{3, 7} {
		j := &fuzzJob{Worker: &lease.Worker{ID: "w"}, cfg: cfg, memo: core.NewPrefixMemo(),
			held: FuzzLeaseResponse{Status: LeaseMinimize, MinID: id, MinCluster: "atomicity-violation|nova|x", MinText: text, MinBudget: 20}}
		if err := j.minimize(context.Background()); err != nil {
			t.Fatal(err)
		}
		got = append(got, j.result.MinText)
	}
	if got[0] != got[1] {
		t.Fatalf("one text minimized differently under two unit ids:\n%q\n%q", got[0], got[1])
	}
}

// TestMinRecordWithoutTrippedSetReplays: a minimization record written before
// units were shared names one cluster and carries one MinVerified bit. On
// resume it settles the cluster it names; its unit's other clusters move to
// a new unit, which is leased again.
func TestMinRecordWithoutTrippedSetReplays(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	d := newSoakDriver(t, CoordinatorConfig{CheckpointPath: ckpt})
	a := FuzzViolation{Kind: "atomicity-violation", FS: "nova", Prefix: "mkdir A", Workload: "w", Text: "mkdir A\nsync\n"}
	s := a
	s.Kind = "synchrony-violation"
	d.runRounds(0, 4, a, s) // one text, two clusters: one unit
	if len(d.coord.mins.Slots) != 1 || len(d.coord.minTasks) != 2 {
		t.Fatalf("%d units for %d tasks, want one for two", len(d.coord.mins.Slots), len(d.coord.minTasks))
	}
	if err := d.coord.Close(); err != nil {
		t.Fatal(err)
	}
	old := &FuzzResult{Kind: ResultMinimize, Worker: "old", SpecHash: d.hash,
		MinCluster: s.ClusterKey(), MinText: "mkdir A\n", MinExecs: 3, MinVerified: true}
	old.Sum = ResultSum(old)
	f, err := os.OpenFile(ckpt, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	line, _ := json.Marshal(fleetCkptLine{Type: "min", Payload: old})
	if _, err := f.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := newSoakDriver(t, CoordinatorConfig{CheckpointPath: ckpt})
	if st := r.coord.Stats(); st.MinTasks != 2 || st.MinDone != 1 {
		t.Fatalf("resume: %+v", st)
	}
	l := r.lease("w0")
	if l.Status != LeaseMinimize || l.MinID != 1 || l.MinCluster != a.ClusterKey() {
		t.Fatalf("want the unsettled cluster leased in a new unit, got %+v", l)
	}
	r.credit(&FuzzResult{Kind: ResultMinimize, Worker: "w0", MinID: 1, MinCluster: a.ClusterKey(),
		MinText: "mkdir A\n", MinExecs: 2, MinTripped: &[]string{"synchrony-violation|nova"}})
	r.runRounds(4, 8)
	census, err := r.coord.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range census.Clusters {
		if wantMin := b.Kind == s.Kind; b.Minimized != wantMin || b.Verified != wantMin || (b.Reproducer == "mkdir A\n") != wantMin {
			t.Errorf("cluster %s: %+v", b.Kind, b)
		}
	}
	if census.MinTasks != 2 || census.MinVerified != 1 {
		t.Fatalf("census: %d tasks, %d verified", census.MinTasks, census.MinVerified)
	}
}

// TestMinimizeDroppedTextReopens: a unit's drop drops every cluster it held,
// and a later cluster with the text does not inherit it: it opens a unit
// with a fresh attempt budget and is minimized. A resume agrees.
func TestMinimizeDroppedTextReopens(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	d := newSoakDriver(t, CoordinatorConfig{Retries: 2, CheckpointPath: ckpt})
	a := FuzzViolation{Kind: "atomicity-violation", FS: "nova", Prefix: "mkdir A", Workload: "w", Text: "mkdir A\nsync\n"}
	a2, s := a, a
	a2.Prefix, s.Kind = "mkdir B", "synchrony-violation"
	d.runRounds(0, 4, a, a2)
	for attempt := 0; attempt < 2; attempt++ {
		d.lease("w0")
		d.credit(&FuzzResult{Kind: ResultMinimize, Worker: "w0", MinID: 0, MinCluster: a.ClusterKey(), Err: "engine: boom"})
	}
	d.runRounds(4, 8, s) // generation 1 sees the dropped text in a new cluster
	if l := d.lease("w0"); l.Status != LeaseMinimize || l.MinID != 1 || l.MinCluster != s.ClusterKey() {
		t.Fatalf("want the new cluster leased in a new unit, got %+v", l)
	}
	d.credit(&FuzzResult{Kind: ResultMinimize, Worker: "w0", MinID: 1, MinCluster: s.ClusterKey(),
		MinText: "mkdir A\n", MinExecs: 2, MinVerified: true, MinTripped: &[]string{"synchrony-violation|nova"}})
	check := func(what string, c *Coordinator) {
		t.Helper()
		if st := c.Stats(); st.MinTasks != 3 || st.MinDone != 3 || st.MinDropped != 2 {
			t.Fatalf("%s: %+v", what, st)
		}
		census, err := c.Wait(context.Background())
		if err != nil || census.MinVerified != 1 {
			t.Fatalf("%s: %d verified, %v", what, census.MinVerified, err)
		}
		for _, b := range census.Clusters {
			if wantMin := b.Kind == s.Kind; b.Minimized != wantMin || (b.Reproducer == "mkdir A\n") != wantMin {
				t.Errorf("%s: cluster %s: %+v", what, b.Kind, b)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	check("live", d.coord)
	checkpointHas(t, ckpt, `{"type":"mindrop","min_cluster":"atomicity-violation|nova|mkdir A"}`)
	checkpointHas(t, ckpt, `{"type":"mindrop","min_cluster":"atomicity-violation|nova|mkdir B"}`)
	check("resumed", newSoakDriver(t, CoordinatorConfig{Retries: 2, CheckpointPath: ckpt}).coord)
}

// TestMinimizeEmptyTrippedSetSettlesUnit: a re-run that tripped nothing
// still speaks for every task of its unit: each is settled unverified and
// the text is not leased again.
func TestMinimizeEmptyTrippedSetSettlesUnit(t *testing.T) {
	d := newSoakDriver(t, CoordinatorConfig{})
	a := FuzzViolation{Kind: "atomicity-violation", FS: "nova", Prefix: "mkdir A", Workload: "w", Text: "mkdir A\nsync\n"}
	s := a
	s.Kind = "synchrony-violation"
	d.runRounds(0, 4, a, s)
	l := d.lease("w0")
	d.credit(&FuzzResult{Kind: ResultMinimize, Worker: "w0", MinID: l.MinID, MinCluster: l.MinCluster,
		MinText: "mkdir A\n", MinExecs: 2, MinTripped: &[]string{}})
	if st := d.coord.Stats(); st.MinTasks != 2 || st.MinDone != 2 || len(d.coord.mins.Slots) != 1 {
		t.Fatalf("%+v over %d units", st, len(d.coord.mins.Slots))
	}
	d.runRounds(4, 8) // no second minimize lease
	census, err := d.coord.Wait(context.Background())
	if err != nil || census.MinVerified != 0 {
		t.Fatalf("census: %d verified, %v", census.MinVerified, err)
	}
}
