package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chipmunk/internal/bugs"
	"chipmunk/internal/fs/nova"
	"chipmunk/internal/obs"
	"chipmunk/internal/persist"
	"chipmunk/internal/pmem"
	"chipmunk/internal/trace"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

// TestCoalesceSpans pins the span-merging rules the dedup scan relies on:
// sorted output, overlapping and touching spans merged, contained spans
// absorbed, disjoint spans kept with their gap intact.
func TestCoalesceSpans(t *testing.T) {
	cases := []struct {
		name string
		in   []span
		want []span
	}{
		{"empty", nil, nil},
		{"single", []span{{10, 20}}, []span{{10, 20}}},
		{"disjoint", []span{{0, 4}, {8, 12}}, []span{{0, 4}, {8, 12}}},
		{"adjacent", []span{{0, 4}, {4, 8}}, []span{{0, 8}}},
		{"overlapping", []span{{0, 6}, {4, 10}}, []span{{0, 10}}},
		{"contained", []span{{0, 10}, {2, 5}}, []span{{0, 10}}},
		{"out-of-order", []span{{8, 12}, {0, 4}}, []span{{0, 4}, {8, 12}}},
		{"out-of-order-adjacent", []span{{4, 8}, {0, 4}}, []span{{0, 8}}},
		{"duplicate", []span{{3, 7}, {3, 7}}, []span{{3, 7}}},
		{
			"mixed",
			[]span{{20, 30}, {0, 5}, {4, 9}, {9, 12}, {40, 41}, {25, 28}},
			[]span{{0, 12}, {20, 30}, {40, 41}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := append([]span(nil), c.in...)
			got := coalesceSpans(in)
			if len(got) != len(c.want) {
				t.Fatalf("coalesceSpans(%v) = %v, want %v", c.in, got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("coalesceSpans(%v) = %v, want %v", c.in, got, c.want)
				}
			}
			// The invariant downstream code depends on: merged spans are
			// sorted and separated by at least one uncovered byte.
			for i := 1; i < len(got); i++ {
				if got[i].lo <= got[i-1].hi {
					t.Fatalf("merged spans %v not separated by a gap", got)
				}
			}
		})
	}
}

// sameResult requires got to agree with want in every field but the Obs
// snapshot, whose measurement counters legitimately differ between paths.
func sameResult(t *testing.T, name string, want, got *Result) {
	t.Helper()
	w, g := *want, *got
	w.Obs, g.Obs = nil, nil
	if !reflect.DeepEqual(w, g) {
		t.Errorf("%s: results differ:\n%+v\nwant\n%+v", name, g, w)
	}
}

// legacyMatrix runs the default engine and a configuration that routes it
// through the path a fast path replaced, on clean and buggy nova over two
// workloads, and requires the two Results to agree. check, when non-nil,
// proves the legacy run really took the legacy path.
func legacyMatrix(t *testing.T, legacy func(*Config), check func(name string, old *Result)) {
	t.Helper()
	for _, set := range []bugs.Set{bugs.None(), bugs.AllSet()} {
		for _, w := range []workload.Workload{mixedWorkload(), renameWorkload()} {
			name := w.Name
			if len(set.IDs()) > 0 {
				name += "/buggy"
			}
			oldCfg := Config{NewFS: novaFS(set), Obs: obs.New()}
			legacy(&oldCfg)
			old := mustRun(t, oldCfg, w)
			if check != nil {
				check(name, old)
			}
			sameResult(t, name, mustRun(t, Config{NewFS: novaFS(set)}, w), old)
		}
	}
}

// TestCoalescedApplyMatchesPerStore: with faults on, each state's recipe is
// its diff key recomputed over torn write lengths; at a tear rate no write
// ever hits, that faulted key must equal the dedup key, so the run must
// match the unfaulted one exactly and inject nothing.
func TestCoalescedApplyMatchesPerStore(t *testing.T) {
	legacyMatrix(t, func(c *Config) {
		c.Faults = &pmem.FaultConfig{Seed: 1, TearOneInN: math.MaxInt64}
	}, func(name string, old *Result) {
		if n := old.Obs.Count(obs.CtrFaultsInjected); n != 0 {
			t.Fatalf("%s: the per-store run injected %d faults", name, n)
		}
	})
}

// perCheckOracle judges every state with a fresh oracle contract, so every
// judgement builds its own oracle view.
type perCheckOracle struct {
	Checker
	env RunEnv
}

func (p perCheckOracle) Judge(o Observation, cctx *CheckContext) *Finding {
	return NewOracleChecker(p.env).Judge(o, cctx)
}

// TestOracleSnapshotMatchesPerCheck: sharing one frozen oracle snapshot per
// crash point must produce verdicts byte-identical to rebuilding the
// pre/post view inside every check.
func TestOracleSnapshotMatchesPerCheck(t *testing.T) {
	legacyMatrix(t, func(c *Config) {
		c.Checker = func(env RunEnv) Checker { return perCheckOracle{NewOracleChecker(env), env} }
	}, func(name string, old *Result) {
		if h := old.Obs.Count(obs.CtrOracleSnapshotHits); h != 0 {
			t.Fatalf("%s: the per-check oracle hit the snapshot cache %d times", name, h)
		}
	})
}

// drainFreeList empties the free list for size, so the next chain allocates
// a fresh zeroed rig, checker and image, and returns a func that puts the
// drained rigs back.
func drainFreeList(size int) (restore func()) {
	rigs.Lock()
	rs := rigs.free[size]
	delete(rigs.free, size)
	rigs.Unlock()
	return func() {
		for _, r := range rs {
			putRig(r)
		}
	}
}

// syncWorkload writes one file and fsyncs it: on a weak system its one
// crash state comes after the fsync, one generation past the Mkfs image.
func syncWorkload(path string, size int64, seed uint32) workload.Workload {
	return workload.Workload{Name: "sync" + path, Ops: []workload.Op{
		{Kind: workload.OpCreat, Path: path, FDSlot: -1},
		{Kind: workload.OpPwrite, Path: path, FDSlot: -1, Off: 0, Size: size, Seed: seed},
		{Kind: workload.OpFsync, Path: path, FDSlot: -1},
	}}
}

// TestBufferReuseMatchesFresh: reusing device-sized rigs and crash images
// must change nothing. With the free list drained a run allocates fresh
// zeroed memory; the same run repeated on buffers another system's workload
// just dirtied, on pages the first system never writes, must agree with it,
// and so must the same run made on a fresh chain after a dirtying workload
// of its own system, which leaves it its checker and crash image. Every
// free-listed buffer must stay zero outside its page set.
func TestBufferReuseMatchesFresh(t *testing.T) {
	systems := []struct {
		name  string
		newFS func(bugs.Set) func(*persist.PM) vfs.FS
	}{
		{"nova", novaFS}, {"splitfs", splitfsFS}, {"pmfs", pmfsFS},
		{"ext4-dax", func(bugs.Set) func(*persist.PM) vfs.FS { return extdaxFS() }},
	}
	for _, set := range []bugs.Set{bugs.None(), bugs.AllSet()} {
		for i, sys := range systems {
			dirty := systems[(i+1)%len(systems)]
			for _, w := range []struct{ run, dirty workload.Workload }{
				{mixedWorkload(), renameWorkload()},
				{renameWorkload(), mixedWorkload()},
				{syncWorkload("/a", 512, 1), syncWorkload("/b", 64, 7)},
			} {
				name := sys.name + " " + w.run.Name + " after "
				cfg := Config{NewFS: sys.newFS(set)}
				restore := drainFreeList(DefaultDevSize)
				fresh := mustRun(t, cfg, w.run)
				restore()
				mustRun(t, Config{NewFS: dirty.newFS(set)}, w.dirty)
				warm := mustRun(t, cfg, w.run)
				sameResult(t, name+dirty.name+" "+w.dirty.Name, fresh, warm)

				restore = drainFreeList(DefaultDevSize)
				c := (*PrefixMemo)(nil).Chain(cfg)
				var chained *Result
				for _, w := range []workload.Workload{w.dirty, w.run} {
					var err error
					if chained, err = c.Run(context.Background(), w, nil); err != nil {
						t.Fatal(err)
					}
				}
				c.Close()
				restore()
				sameResult(t, name+w.dirty.Name+" on one chain", fresh, chained)
				if err := CheckPooledPages(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestOracleSnapshotShared: on an engine run a crash point's first
// judgement builds its snapshot and every later one there is a cache hit —
// the counter that proves the sharing actually engages.
func TestOracleSnapshotShared(t *testing.T) {
	col := obs.New()
	res := mustRun(t, Config{NewFS: novaFS(bugs.None()), Obs: col}, mixedWorkload())
	hits := res.Obs.Count(obs.CtrOracleSnapshotHits)
	if hits == 0 {
		t.Fatal("no oracle snapshot hits on a mid-syscall-heavy workload")
	}
}

// TestOracleSnapshotImmutable: a stored snapshot must be bitwise unchanged
// by the checks that consume it — including violating ones — and the
// verdict from it must equal a fresh checker's verdict.
func TestOracleSnapshotImmutable(t *testing.T) {
	pre := vfs.State{
		"/":  dirState("/", "a", "b"),
		"/a": fileState("/a", "old", 1),
		"/b": fileState("/b", "bystander", 1),
	}
	post := pre.Clone()
	post["/a"] = fileState("/a", "new", 1)
	op := workload.Op{Kind: workload.OpPwrite, Path: "/a", FDSlot: -1, Size: 3}

	shared := newAtomChecker(op, pre, post, true)
	ctx := &CheckContext{Phase: PhaseMid, Sys: 0}
	snap := shared.snapshotFor(ctx)
	if shared.snaps[0].Load() != snap {
		t.Fatal("the crash point's first snapshot was not stored")
	}
	frozen := *snap
	frozenPre := append([]vfs.FileState(nil), snap.pre...)
	frozenPaths := append([]string(nil), snap.paths...)

	fresh := newAtomChecker(op, pre, post, true)
	crashes := []vfs.State{
		pre.Clone(),
		post.Clone(),
		// Violating: bystander corrupted.
		func() vfs.State {
			c := post.Clone()
			c["/b"] = fileState("/b", "CORRUPTED", 1)
			return c
		}(),
		// Violating: crash-only extra path.
		func() vfs.State {
			c := pre.Clone()
			c["/zz"] = fileState("/zz", "ghost", 1)
			return c
		}(),
	}
	for i, crash := range crashes {
		got := shared.checkAtomic(crash, ctx)
		want := fresh.checkAtomic(crash, ctx)
		if got != want {
			t.Errorf("crash %d: shared verdict %q != fresh verdict %q", i, got, want)
		}
	}

	if snap.sys != frozen.sys || len(snap.paths) != len(frozenPaths) {
		t.Fatal("snapshot shape mutated by checks")
	}
	for i := range frozenPaths {
		if snap.paths[i] != frozenPaths[i] {
			t.Errorf("snapshot path %d mutated: %q -> %q", i, frozenPaths[i], snap.paths[i])
		}
		if !snap.pre[i].Equal(frozenPre[i]) {
			t.Errorf("snapshot pre state %d mutated", i)
		}
		if snap.inPre[i] != frozen.inPre[i] || snap.inPost[i] != frozen.inPost[i] ||
			snap.modified[i] != frozen.modified[i] || snap.mixOK[i] != frozen.mixOK[i] {
			t.Errorf("snapshot fact arrays mutated at %d", i)
		}
	}

	// A later judgement at the same crash point must reuse the stored
	// snapshot (same pointer — no rebuild).
	if again := shared.snapshotFor(ctx); again != snap {
		t.Error("a later judgement at the crash point rebuilt the snapshot")
	}
}

// stubGuest and stubContract stand in for the guest side of a check: Mount
// succeeds, the contract finds nothing. Guest code allocates by design and is
// not part of the zero-alloc contract; the stubs keep its share fixed and
// tiny so the engine's share can be pinned exactly.
type stubGuest struct{ vfs.FS }

func (*stubGuest) Mount() error { return nil }

type stubContract struct{}

func (stubContract) Name() string                              { return "stub" }
func (stubContract) Observe(vfs.FS, *Interner) Observation     { return nil }
func (stubContract) Judge(Observation, *CheckContext) *Finding { return nil }
func (stubContract) Probe(vfs.FS, Observation) *Finding        { return nil }

// hotLoopChecker builds a bare checker plus a replayed-write log shaped like
// one fence: overlapping and disjoint in-flight stores over a pool-sized
// device. It drives exactly the per-state hot path the engine's runner
// executes — dedup keying, arena saves, key apply, arm → guard → settle
// around a stub guest, rollback — through checkOne, the same entry point
// walk uses, with base as the working image.
func hotLoopChecker(col *obs.Collector) (ck *checker, base []byte, log *trace.Log, subsets [][]int) {
	base = make([]byte, 1<<16)
	for i := range base {
		base[i] = byte(i * 7)
	}
	log = trace.NewLog()
	w := func(off int64, n int, seed byte) {
		data := make([]byte, n)
		for i := range data {
			data[i] = seed + byte(i)
		}
		log.Append(trace.KindNT, off, data, "w")
	}
	w(100, 64, 1) // overlaps the next store
	w(140, 64, 2) // last-writer-wins over [140,164)
	w(300, 32, 3) // disjoint
	w(204, 8, 4)  // adjacent-touching pair with the next
	w(212, 16, 5) //
	subsets = [][]int{
		{0}, {1}, {2}, {3}, {4},
		{0, 1}, {1, 0}, // same bytes, opposite order: the dedup-hit path
		{0, 1, 2}, {3, 4}, {0, 1, 2, 3, 4},
	}
	guest := &stubGuest{}
	ck = &checker{
		cfg:      Config{NewFS: func(*persist.PM) vfs.FS { return guest }},
		contract: stubContract{},
		res:      &Result{},
		obs:      col,
		scratch:  make([]byte, len(base)),
		slot:     newSlot(false),
		epoch:    time.Now(),
		timeout:  DefaultCheckTimeout,
		cur:      cursor{img: base, log: log},
	}
	ck.dev, ck.undo = crashDevice(base)
	return ck, base, log, subsets
}

// runHotLoop is one fence worth of per-state work on the hot path; it
// returns how many distinct states it checked.
func runHotLoop(ck *checker, base []byte, log *trace.Log, subsets [][]int) (states int) {
	ck.resetFenceScratch()
	for _, sub := range subsets {
		k := ck.stateKey(base, log, sub, nil)
		if _, dup := ck.seen[internKey(k)]; dup {
			continue
		}
		key := internKey(ck.keyArena.save(k))
		ck.seen[key] = struct{}{}
		st := crashState{subset: ck.subArena.save(sub), key: key}
		out, err := ck.checkOne(ck.slot, st, CheckContext{Phase: PhaseMid, Fence: 1, Rank: states})
		if err != nil || out.v != nil {
			panic(fmt.Sprintf("hot-loop check: outcome %+v, err %v", out, err))
		}
		states++
	}
	return states
}

// TestCheckLoopZeroAlloc pins the tentpole claim: once warm, the per-state
// check loop — arm, guard and settle included — performs zero heap
// allocations of its own, with observability on and off. The stub guest's
// fixed share (the persist.PM and CheckContext every check hands its guest)
// is measured on a bare checkState call and subtracted.
func TestCheckLoopZeroAlloc(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	for _, c := range []struct {
		name string
		col  *obs.Collector
	}{
		{"obs-off", nil},
		{"obs-on", obs.New()},
	} {
		t.Run(c.name, func(t *testing.T) {
			ck, base, log, subsets := hotLoopChecker(c.col)
			states := 0
			for i := 0; i < 3; i++ { // warm arenas, the undo log, dedup map
				states = runHotLoop(ck, base, log, subsets)
			}
			dev, cctx := ck.dev, &CheckContext{Phase: PhaseMid}
			guest := testing.AllocsPerRun(20, func() {
				ck.checkState(ck.slot, dev, cctx, time.Time{})
			})
			allocs := testing.AllocsPerRun(20, func() {
				runHotLoop(ck, base, log, subsets)
			})
			if engine := allocs - guest*float64(states); engine != 0 {
				t.Errorf("per-fence check loop allocates %.1f times beyond the guest's %.0f x %d states, want 0",
					engine, guest, states)
			}
		})
	}
}

// TestRunAllocBudget pins the allocation budget of a warm engine run. A
// one-op workload recycles its rig — recording device, capture arenas,
// checker and all — so what it allocates is the oracle, the guest's own
// structures and the result. Measured on go1.24 linux/amd64: 5.3 KB per run
// on ext4-dax and 15.5 KB on nova, against 72.7 KB and 76.2 KB when every
// run built a fresh recording device and re-grew its 64 KiB memset capture.
// With 16 runs in flight at once, as under a -j 16 suite, it is 5.0 KB and
// 15.2 KB: the free list keeps every rig its runs return. Capping it at 8
// per size made each batch allocate 8 fresh 4 MiB rigs, 2.1 MB per run.
// The warm-chain leg repeats the workload on one Chain, as a harness worker
// does. The chain keeps one checker for all its runs, and the checker one
// guest it remounts per crash state: 4.8 KB per run on ext4-dax and 12.4 KB
// on nova, against 4.9 KB and 18.2 KB with a fresh guest per state, and
// 5.8 KB and 18.8 KB when each run built its own 1 KiB checker. Its budget
// is the measurement plus half a checker. The ext4-dax commit leg runs a
// workload that commits twice on a warm chain: 67.8 KB per run, against
// 69.4 KB with a fresh guest per state and 85.7 KB when every commit
// allocated its transaction and every mount copied its file data.
func TestRunAllocBudget(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector instrumentation allocates; the budget is meaningless under -race")
	}
	const budget = 40 << 10
	w := workload.Workload{Name: "one-op", Ops: []workload.Op{{Kind: workload.OpCreat, Path: "/a", FDSlot: -1}}}
	commits := workload.Workload{Name: "commits", Ops: []workload.Op{
		{Kind: workload.OpCreat, Path: "/a", FDSlot: -1},
		{Kind: workload.OpPwrite, Path: "/a", FDSlot: -1, Size: 4096, Seed: 1},
		{Kind: workload.OpFsync, Path: "/a", FDSlot: -1},
		{Kind: workload.OpPwrite, Path: "/a", FDSlot: -1, Off: 4096, Size: 4096, Seed: 2},
		{Kind: workload.OpFsync, Path: "/a", FDSlot: -1},
	}}
	for _, c := range []struct {
		name     string
		fs       func(pm *persist.PM) vfs.FS
		chainRun uint64 // a warm chain run's measured bytes
	}{
		{"ext4-dax", extdaxFS(), 4824},
		{"nova", novaFS(bugs.None()), 12416},
	} {
		cfg := Config{NewFS: c.fs}
		for _, inFlight := range []int{1, 16} {
			t.Run(fmt.Sprintf("%s/in-flight-%d", c.name, inFlight), func(t *testing.T) {
				if got := perRun(inFlight, func() { runBatch(t, cfg, w, inFlight) }); got > budget {
					t.Errorf("warm run allocates %d bytes, budget %d", got, budget)
				}
			})
		}
		t.Run(c.name+"/warm-chain", func(t *testing.T) { warmChain(t, cfg, w, c.chainRun) })
	}
	t.Run("ext4-dax/warm-chain-commits", func(t *testing.T) {
		warmChain(t, Config{NewFS: extdaxFS()}, commits, 67817)
	})
}

// perRun returns the bytes allocated per run over ten batches, batch
// making runs runs. One round is enough: nothing a run reuses lives in a
// pool a GC cycle could empty (under -count=5 every leg reads the same
// bytes five times, but the 16-in-flight legs, which spread by 2%).
func perRun(runs int, batch func()) uint64 {
	for i := 0; i < 3; i++ { // warm the free list
		batch()
	}
	const batches = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < batches; i++ {
		batch()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(batches*runs)
}

// warmChain fails t if a run of w on a warm Chain allocates more than
// measured bytes plus half a checker.
func warmChain(t *testing.T, cfg Config, w workload.Workload, measured uint64) {
	ch := (*PrefixMemo)(nil).Chain(cfg)
	defer ch.Close()
	got := perRun(1, func() {
		if _, err := ch.Run(context.Background(), w, nil); err != nil {
			t.Fatal(err)
		}
	})
	if budget := measured + 512; got > budget {
		t.Errorf("warm chain run allocates %d bytes, budget %d", got, budget)
	}
}

// runBatch runs n copies of w at once and fails t on any error. Each run
// waits in its target's constructor — which RunContext calls right after
// taking its rig — until all n have arrived, so n rigs are in use at once.
func runBatch(t *testing.T, cfg Config, w workload.Workload, n int) {
	t.Helper()
	var arrived atomic.Int32
	all := make(chan struct{})
	newFS := cfg.NewFS
	cfg.NewFS = func(pm *persist.PM) vfs.FS {
		if arrived.Add(1) == int32(n) {
			close(all)
		}
		<-all
		return newFS(pm)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = RunContext(context.Background(), cfg, w)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
}

// BenchmarkStateKey measures dedup keying (span coalescing + diff scan) per
// crash state; allocs/op must read 0 once warm.
func BenchmarkStateKey(b *testing.B) {
	ck, base, log, subsets := hotLoopChecker(nil)
	ck.resetFenceScratch()
	sub := subsets[len(subsets)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ck.stateKey(base, log, sub, nil)
	}
}

// BenchmarkDeltaApplyRelease measures one crash state's materialize + restore
// round trip from its diff key; allocs/op must read 0 once warm.
func BenchmarkDeltaApplyRelease(b *testing.B) {
	ck, base, log, subsets := hotLoopChecker(nil)
	ck.resetFenceScratch()
	sub := subsets[len(subsets)-1]
	key := internKey(ck.keyArena.save(ck.stateKey(base, log, sub, nil)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ck.applyDelta(key, nil)
		ck.undo.Rollback()
	}
}

// BenchmarkMaterializeState is the end-to-end per-state hot loop (keying,
// dedup, apply, guard, rollback) the zero-alloc test pins.
func BenchmarkMaterializeState(b *testing.B) {
	ck, base, log, subsets := hotLoopChecker(nil)
	runHotLoop(ck, base, log, subsets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runHotLoop(ck, base, log, subsets)
	}
}

// TestProbeAllocBudget pins what a mounted crash state costs the check
// beyond its mount: Observe, Judge and the usability probe on a NOVA image
// holding two directories and three files, with the mount's own share
// measured alone and subtracted. The probe writes and deletes a file in
// every directory, so the guest's write path runs here once per directory,
// as it does on every distinct crash state a suite checks. The guest is
// remounted per state and the contract captures into the storage the
// engine keeps beside it, as in a run. Measured on go1.24 linux/amd64: 38
// allocations (a remount alone makes none), against 64 (and 62 for the
// mount) when every state had a fresh guest and a pooled capture scratch,
// and 210 when persist.PM handed probes the caller's buffer, so every
// buffer a guest wrote from escaped, and NOVA built its inode images, log
// entries and journal records on the heap.
func TestProbeAllocBudget(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	const budget = 38
	dev := pmem.NewDevice(1 << 20)
	fs := nova.New(persist.New(dev), bugs.None())
	if err := fs.Mkfs(); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"/a", "/a/b"} {
		if err := fs.Mkdir(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"/f", "/a/g", "/a/b/h"} {
		fd, err := fs.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Pwrite(fd, []byte("contents of "+p), 0); err != nil {
			t.Fatal(err)
		}
		fs.Close(fd)
	}
	st, err := vfs.Capture(fs)
	if err != nil {
		t.Fatal(err)
	}
	dev.Fence()
	img := dev.CrashImage()

	work := make([]byte, len(img))
	wdev := pmem.WrapImage(work)
	g := nova.New(persist.New(wdev), bugs.None())
	copy(work, img)
	if err := g.Mount(); err != nil {
		t.Fatal(err)
	}
	mount := func() vfs.FS {
		copy(work, img)
		wdev.Reset()
		if err := g.Remount(); err != nil {
			t.Fatal(err)
		}
		return g
	}
	chk := NewOracleChecker(RunEnv{OracleStates: []vfs.State{st}, Scratch: new(Scratch)})
	in, cctx := &Interner{}, &CheckContext{Phase: PhasePost}
	check := func() {
		g := mount()
		o := chk.Observe(g, in)
		if f := chk.Judge(o, cctx); f != nil {
			t.Fatalf("judge: %v", f.Detail)
		}
		if f := chk.Probe(g, o); f != nil {
			t.Fatalf("probe: %v", f.Detail)
		}
	}
	mountOnly := testing.AllocsPerRun(50, func() { mount() })
	full := testing.AllocsPerRun(50, check)
	if got := full - mountOnly; got > budget {
		t.Errorf("Observe+Judge+Probe allocate %.0f times per state (%.0f with the mount), budget %d", got, full, budget)
	}
}
