package fuzz

import (
	"context"
	"errors"
	"testing"

	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
	"chipmunk/internal/fs/nova"
	"chipmunk/internal/persist"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

func TestMinimizeShrinksReproducer(t *testing.T) {
	cfg := core.Config{
		NewFS: func(pm *persist.PM) vfs.FS {
			return nova.New(pm, bugs.Of(bugs.NovaRenameInPlaceDelete))
		},
		Cap: 2,
	}
	// A bloated workload around the 3-op rename reproducer.
	w := workload.Workload{Name: "bloated", Ops: []workload.Op{
		{Kind: workload.OpMkdir, Path: "/junk1"},
		{Kind: workload.OpMkdir, Path: "/junk2"},
		{Kind: workload.OpCreat, Path: "/f0", FDSlot: -1},
		{Kind: workload.OpPwrite, Path: "/f0", FDSlot: -1, Size: 64, Seed: 1},
		{Kind: workload.OpMkdir, Path: "/junk3"},
		{Kind: workload.OpRename, Path: "/f0", Path2: "/f1"},
		{Kind: workload.OpMkdir, Path: "/junk4"},
		{Kind: workload.OpRmdir, Path: "/junk4"},
	}}
	min, execs, err := Minimize(context.Background(), nil, cfg, w, 100)
	if err != nil {
		t.Fatal(err)
	}
	if execs == 0 {
		t.Fatal("no executions")
	}
	if len(min.Ops) >= len(w.Ops) {
		t.Fatalf("no reduction: %d ops", len(min.Ops))
	}
	// The minimized workload must still reproduce.
	res, err := core.RunContext(context.Background(), cfg, min)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Buggy() {
		t.Fatalf("minimized workload does not reproduce:\n%s", workload.Format(min))
	}
	// The rename must have survived minimization.
	hasRename := false
	for _, op := range min.Ops {
		if op.Kind == workload.OpRename {
			hasRename = true
		}
	}
	if !hasRename {
		t.Fatalf("rename dropped:\n%s", workload.Format(min))
	}
	t.Logf("minimized %d -> %d ops in %d execs:\n%s", len(w.Ops), len(min.Ops), execs, workload.Format(min))
}

func TestMinimizeNonBuggyUnchanged(t *testing.T) {
	cfg := core.Config{
		NewFS: func(pm *persist.PM) vfs.FS { return nova.New(pm, bugs.None()) },
	}
	w := workload.Workload{Ops: []workload.Op{{Kind: workload.OpCreat, Path: "/a", FDSlot: -1}}}
	min, _, err := Minimize(context.Background(), nil, cfg, w, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(min.Ops) != 1 {
		t.Fatal("non-buggy workload modified")
	}
}

func TestMinimizeRespectsBudget(t *testing.T) {
	cfg := core.Config{
		NewFS: func(pm *persist.PM) vfs.FS {
			return nova.New(pm, bugs.Of(bugs.NovaRenameInPlaceDelete))
		},
		Cap: 1,
	}
	w := workload.Workload{Ops: []workload.Op{
		{Kind: workload.OpCreat, Path: "/f0", FDSlot: -1},
		{Kind: workload.OpRename, Path: "/f0", Path2: "/f1"},
	}}
	_, execs, err := Minimize(context.Background(), nil, cfg, w, 3)
	if err != nil {
		t.Fatal(err)
	}
	if execs > 3 {
		t.Fatalf("budget exceeded: %d", execs)
	}
}

// Minimization is deterministic: the same reproducer and budget produce a
// byte-identical minimized workload and the same exec count. Fleet mode
// depends on this — a re-dispatched minimization task must credit the same
// result no matter which worker runs it.
func TestMinimizeDeterministic(t *testing.T) {
	cfg := core.Config{
		NewFS: func(pm *persist.PM) vfs.FS {
			return nova.New(pm, bugs.Of(bugs.NovaRenameInPlaceDelete))
		},
		Cap: 2,
	}
	w := workload.Workload{Name: "bloated", Ops: []workload.Op{
		{Kind: workload.OpMkdir, Path: "/junk1"},
		{Kind: workload.OpCreat, Path: "/f0", FDSlot: -1},
		{Kind: workload.OpPwrite, Path: "/f0", FDSlot: -1, Size: 64, Seed: 1},
		{Kind: workload.OpMkdir, Path: "/junk2"},
		{Kind: workload.OpRename, Path: "/f0", Path2: "/f1"},
	}}
	min1, execs1, err := Minimize(context.Background(), nil, cfg, w, 60)
	if err != nil {
		t.Fatal(err)
	}
	min2, execs2, err := Minimize(context.Background(), nil, cfg, w, 60)
	if err != nil {
		t.Fatal(err)
	}
	if execs1 != execs2 {
		t.Fatalf("exec counts differ: %d vs %d", execs1, execs2)
	}
	if workload.Format(min1) != workload.Format(min2) {
		t.Fatalf("minimized workloads differ:\n%s\nvs\n%s", workload.Format(min1), workload.Format(min2))
	}
}

// Minimization preserves the violation cluster's stable coordinates: the
// shrunk workload still trips a violation of the same kind implicating the
// same op kind. (The full cluster key's trace prefix is a rendering of the
// op sequence, so a successful shrink necessarily changes it — which is why
// the fleet's post-minimization re-verification also checks kind and FS,
// not the prefix.)
func TestMinimizePreservesCluster(t *testing.T) {
	cfg := core.Config{
		NewFS: func(pm *persist.PM) vfs.FS {
			return nova.New(pm, bugs.Of(bugs.NovaRenameInPlaceDelete))
		},
		Cap: 2,
	}
	w := workload.Workload{Name: "bloated", Ops: []workload.Op{
		{Kind: workload.OpMkdir, Path: "/junk1"},
		{Kind: workload.OpCreat, Path: "/f0", FDSlot: -1},
		{Kind: workload.OpPwrite, Path: "/f0", FDSlot: -1, Size: 64, Seed: 1},
		{Kind: workload.OpRename, Path: "/f0", Path2: "/f1"},
	}}
	orig, err := core.RunContext(context.Background(), cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(orig.Violations) == 0 {
		t.Fatal("original workload not buggy; test needs a reproducer")
	}
	wantKeys := map[string]bool{}
	for _, v := range orig.Violations {
		op := ""
		if v.Syscall >= 0 && v.Syscall < len(v.Workload.Ops) {
			op = v.Workload.Ops[v.Syscall].Kind.String()
		}
		wantKeys[v.Kind.String()+"|"+v.FS+"|"+op] = true
	}
	min, _, err := Minimize(context.Background(), nil, cfg, w, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(min.Ops) >= len(w.Ops) {
		t.Fatalf("nothing shrunk: %d ops -> %d ops", len(w.Ops), len(min.Ops))
	}
	res, err := core.RunContext(context.Background(), cfg, min)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		op := ""
		if v.Syscall >= 0 && v.Syscall < len(v.Workload.Ops) {
			op = v.Workload.Ops[v.Syscall].Kind.String()
		}
		if wantKeys[v.Kind.String()+"|"+v.FS+"|"+op] {
			return
		}
	}
	t.Fatalf("minimized workload preserves no original (kind, fs, op) triple; got %d violations", len(res.Violations))
}

// Minimize runs its candidates under the caller's context: one cancelled
// during the first candidate's engine run stops the shrink there, with the
// context's error, so a fleet worker whose task was cancelled (watchdog,
// refused heartbeat) does not run out the task's budget first.
func TestMinimizeHonoursContext(t *testing.T) {
	var cancel context.CancelFunc
	runs := 0
	cfg := core.Config{
		NewFS: func(pm *persist.PM) vfs.FS {
			return nova.New(pm, bugs.Of(bugs.NovaRenameInPlaceDelete))
		},
		Cap: 2,
		// The contract is built once per engine run, before its crash states
		// are checked.
		Checker: func(env core.RunEnv) core.Checker {
			runs++
			cancel()
			return core.NewOracleChecker(env)
		},
	}
	w := workload.Workload{Name: "bloated", Ops: []workload.Op{
		{Kind: workload.OpMkdir, Path: "/junk1"},
		{Kind: workload.OpCreat, Path: "/f0", FDSlot: -1},
		{Kind: workload.OpPwrite, Path: "/f0", FDSlot: -1, Size: 64, Seed: 1},
		{Kind: workload.OpMkdir, Path: "/junk2"},
		{Kind: workload.OpRename, Path: "/f0", Path2: "/f1"},
	}}
	for _, m := range []*core.PrefixMemo{nil, core.NewPrefixMemo()} {
		ctx, stop := context.WithCancel(context.Background())
		cancel, runs = stop, 0
		_, execs, err := Minimize(ctx, m, cfg, w, 60)
		stop()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("memo %v: err = %v, want context.Canceled", m != nil, err)
		}
		if runs > 1 || execs > 1 {
			t.Fatalf("memo %v: %d engine runs (%d execs) after the cancel, want at most 1", m != nil, runs, execs)
		}
	}
}
