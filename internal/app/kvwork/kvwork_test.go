package kvwork_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"chipmunk/internal/ace"
	"chipmunk/internal/app/kvstore"
	"chipmunk/internal/app/kvwork"
	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
	"chipmunk/internal/fs/memfs"
	"chipmunk/internal/harness"
	"chipmunk/internal/persist"
	"chipmunk/internal/pmem"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

// kvConfig builds the engine config for one system with the KV app and
// contract checker installed — what `chipmunk -app=kv` resolves to.
func kvConfig(sys harness.System, kb kvstore.Bugs) core.Config {
	cfg := harness.Options{Bugs: bugs.None()}.ConfigFor(sys)
	cfg.AppFactory = kvwork.Factory(kb)
	cfg.Checker = kvwork.NewChecker(kb)
	return cfg
}

// TestReferenceModelHasNoViolations runs the KV smoke suite over all seven
// systems: a correct store on a correct file system must satisfy the
// durability contract in every crash state.
func TestReferenceModelHasNoViolations(t *testing.T) {
	suite := ace.KVSmoke()
	for _, sys := range harness.Systems() {
		sys := sys
		t.Run(sys.Name, func(t *testing.T) {
			t.Parallel()
			cfg := kvConfig(sys, kvstore.Bugs{})
			for _, w := range suite {
				res, err := core.RunContext(context.Background(), cfg, w)
				if err != nil {
					t.Fatalf("%s: %v", w.Name, err)
				}
				for _, r := range res.OpResults {
					if r.Err != nil {
						t.Fatalf("%s: live op %s failed: %v", w.Name, r.Op, r.Err)
					}
				}
				if len(res.Violations) > 0 {
					t.Fatalf("%s: %d violations, first:\n%s",
						w.Name, len(res.Violations), res.Violations[0].String())
				}
			}
		})
	}
}

// TestSeededAckLossIsCaught proves the contract has teeth: with the
// DropSyncFlush bug the acked-durability contract must flag crash states on
// every one of the seven systems, while live op behavior stays clean (the
// bug is invisible without crash testing — the point of the paper).
func TestSeededAckLossIsCaught(t *testing.T) {
	kb := kvstore.Bugs{DropSyncFlush: true}
	w := workload.Workload{Name: "kv-ackloss", Ops: []workload.Op{
		{Kind: workload.OpKVPut, Path: "alpha", FDSlot: -1, Size: 64, Seed: 11},
		{Kind: workload.OpKVSync, FDSlot: -1},
		{Kind: workload.OpKVPut, Path: "beta", FDSlot: -1, Size: 32, Seed: 12},
		{Kind: workload.OpKVSync, FDSlot: -1},
	}}
	for _, sys := range harness.Systems() {
		sys := sys
		t.Run(sys.Name, func(t *testing.T) {
			t.Parallel()
			res, err := core.RunContext(context.Background(), kvConfig(sys, kb), w)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res.OpResults {
				if r.Err != nil {
					t.Fatalf("live op %s failed: %v (the bug must be crash-only)", r.Op, r.Err)
				}
			}
			found := false
			for _, v := range res.Violations {
				if v.Kind == core.VAppContract && v.Contract == "acked-durability" {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("ack-loss bug not flagged; %d violations", len(res.Violations))
			}
		})
	}
}

// TestSerialParallelIdentical pins the determinism contract for the KV
// checker: the suite-level worker count must not change results.
func TestSerialParallelIdentical(t *testing.T) {
	sys, err := harness.SystemByName("nova")
	if err != nil {
		t.Fatal(err)
	}
	cfg := kvConfig(sys, kvstore.Bugs{DropSyncFlush: true})
	fingerprint := func(workers int) string {
		census, viol, err := harness.Run(context.Background(), cfg, ace.KVSmoke(), harness.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "states=%d violations=%d\n", census.StatesChecked, len(viol))
		for _, v := range viol {
			b.WriteString(v.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	serial, parallel := fingerprint(1), fingerprint(8)
	if serial != parallel {
		t.Fatalf("serial != parallel\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}
}

// checkEnv builds a RunEnv + CheckContext for direct checker unit tests:
// the crash is taken after all ops completed (post-syscall of the last op).
func checkEnv(w workload.Workload) (core.RunEnv, *core.CheckContext) {
	results := make([]workload.Result, len(w.Ops))
	for i, op := range w.Ops {
		results[i] = workload.Result{Op: op}
	}
	env := core.RunEnv{Workload: w, OpResults: results}
	cctx := &core.CheckContext{Phase: core.PhasePost, Sys: len(w.Ops) - 1, AckedOps: len(w.Ops)}
	return env, cctx
}

// runStore executes the workload's app ops against a fresh memfs.
func runStore(t *testing.T, w workload.Workload, kb kvstore.Bugs) vfs.FS {
	t.Helper()
	fs := memfs.New()
	if err := fs.Mkfs(); err != nil {
		t.Fatal(err)
	}
	app, err := kvwork.Factory(kb)(fs)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range w.Ops {
		if err := app.Exec(op); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	}
	app.Close()
	return fs
}

var kvUnitWorkload = workload.Workload{Name: "kv-unit", Ops: []workload.Op{
	{Kind: workload.OpKVPut, Path: "alpha", FDSlot: -1, Size: 64, Seed: 11},
	{Kind: workload.OpKVSync, FDSlot: -1},
	{Kind: workload.OpKVPut, Path: "beta", FDSlot: -1, Size: 32, Seed: 12},
	{Kind: workload.OpKVSync, FDSlot: -1},
}}

// check applies c to a mounted state outside the engine: observe, judge,
// then probe after a passing judgement.
func check(c core.Checker, fs vfs.FS, cctx *core.CheckContext) *core.Finding {
	o := c.Observe(fs, nil)
	if f := c.Judge(o, cctx); f != nil {
		return f
	}
	return c.Probe(fs, o)
}

func TestCheckerAcceptsFaithfulState(t *testing.T) {
	fs := runStore(t, kvUnitWorkload, kvstore.Bugs{})
	env, cctx := checkEnv(kvUnitWorkload)
	if f := check(kvwork.NewChecker(kvstore.Bugs{})(env), fs, cctx); f != nil {
		t.Fatalf("faithful state flagged: %+v", f)
	}
}

func TestCheckerFlagsAckedLoss(t *testing.T) {
	fs := runStore(t, kvUnitWorkload, kvstore.Bugs{})
	// Tear the WAL back to its first record: the second, acked, put is gone.
	st, err := fs.Stat(kvstore.Dir + "/wal")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate(kvstore.Dir+"/wal", st.Size-3); err != nil {
		t.Fatal(err)
	}
	env, cctx := checkEnv(kvUnitWorkload)
	f := check(kvwork.NewChecker(kvstore.Bugs{})(env), fs, cctx)
	if f == nil || f.Contract != "acked-durability" {
		t.Fatalf("torn acked record not flagged as acked-durability: %+v", f)
	}
}

func TestCheckerFlagsSilentCorruption(t *testing.T) {
	kb := kvstore.Bugs{AcceptBadCRC: true}
	fs := runStore(t, kvUnitWorkload, kb)
	// Flip a value byte in the WAL's final record. An honest store would
	// truncate at recovery; the AcceptBadCRC store serves the corrupt value
	// and the contract must call it out.
	st, err := fs.Stat(kvstore.Dir + "/wal")
	if err != nil {
		t.Fatal(err)
	}
	fd, err := fs.Open(kvstore.Dir + "/wal")
	if err != nil {
		t.Fatal(err)
	}
	off := st.Size - 5 // inside the last record's value bytes
	buf := make([]byte, 1)
	if _, err := fs.Pread(fd, buf, off); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Pwrite(fd, []byte{buf[0] ^ 0xFF}, off); err != nil {
		t.Fatal(err)
	}
	fs.Close(fd)

	env, cctx := checkEnv(kvUnitWorkload)
	f := check(kvwork.NewChecker(kb)(env), fs, cctx)
	if f == nil || f.Contract != "no-silent-corruption" {
		t.Fatalf("corrupt value not flagged as no-silent-corruption: %+v", f)
	}
}

// TestNoFDLeaksAcrossSystems opens, mutates, recovers, and closes the store
// on each of the seven file systems, asserting every implementation's
// descriptor table drains — Close bookkeeping bugs surface here.
func TestNoFDLeaksAcrossSystems(t *testing.T) {
	for _, sys := range harness.Systems() {
		sys := sys
		t.Run(sys.Name, func(t *testing.T) {
			dev := pmem.NewDevice(core.DefaultDevSize)
			fs := sys.Factory(bugs.None())(persist.New(dev))
			counter, ok := fs.(vfs.FDCounter)
			if !ok {
				t.Fatalf("%s does not implement vfs.FDCounter", sys.Name)
			}
			if err := fs.Mkfs(); err != nil {
				t.Fatal(err)
			}

			app, err := kvwork.Factory(kvstore.Bugs{})(fs)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range kvUnitWorkload.Ops {
				if err := app.Exec(op); err != nil {
					t.Fatalf("%s: %v", op, err)
				}
			}
			if err := app.Close(); err != nil {
				t.Fatal(err)
			}
			if got := counter.OpenFDs(); got != 0 {
				t.Fatalf("%d FDs open after app Close", got)
			}

			// Recovery path: reopen the store on the same image.
			st, err := kvstore.Open(fs, kvstore.Bugs{})
			if err != nil {
				t.Fatal(err)
			}
			if st.Seq() != 2 {
				t.Fatalf("recovered %d mutations, want 2", st.Seq())
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if got := counter.OpenFDs(); got != 0 {
				t.Fatalf("%d FDs open after recovery Close", got)
			}
		})
	}
}
