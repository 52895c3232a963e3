package core

import (
	"fmt"
	"testing"
	"time"

	"chipmunk/internal/bugs"
	"chipmunk/internal/obs"
	"chipmunk/internal/persist"
	"chipmunk/internal/trace"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

// TestCoalesceSpans pins the span-merging rules the dedup scan, the coalesced
// apply, and the release path all rely on: sorted output, overlapping and
// touching spans merged, contained spans absorbed, disjoint spans kept with
// their gap intact.
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

// perfKnobMatrix runs one Disable* knob through the same differential the
// delta materializer is held to: full-Result agreement across clean and buggy
// systems, on two workloads.
func perfKnobMatrix(t *testing.T, name string, legacy func(*Config)) {
	t.Helper()
	for _, set := range []bugs.Set{bugs.None(), bugs.AllSet()} {
		for _, w := range []struct {
			name string
			wl   func() workload.Workload
		}{
			{"mixed", mixedWorkload},
			{"rename", renameWorkload},
		} {
			legacyCfg := Config{NewFS: novaFS(set)}
			legacy(&legacyCfg)
			old := mustRun(t, legacyCfg, w.wl())
			new := mustRun(t, Config{NewFS: novaFS(set)}, w.wl())
			label := name + "/" + w.name
			if len(set.IDs()) > 0 {
				label += "/buggy"
			}
			compareDeltaResults(t, label, old, new)
		}
	}
}

// TestCoalescedApplyMatchesPerStore: materializing a crash state by copying
// its coalesced diff runs must be byte-identical to replaying every in-flight
// store individually — overlaps were already resolved last-writer-wins when
// the key was computed.
func TestCoalescedApplyMatchesPerStore(t *testing.T) {
	perfKnobMatrix(t, "coalesce", func(c *Config) { c.DisableCoalescedApply = true })
}

// TestOracleSnapshotMatchesPerCheck: sharing one frozen oracle snapshot per
// crash point must produce verdicts byte-identical to rebuilding the
// pre/post view inside every check.
func TestOracleSnapshotMatchesPerCheck(t *testing.T) {
	perfKnobMatrix(t, "snapshot", func(c *Config) { c.DisableOracleSnapshot = true })
}

// TestBufferReuseMatchesFresh: recycling device-sized buffers and image pairs
// through the cross-run pools must change nothing — including on a warm
// second run, where every grab is a recycle of the first run's memory.
func TestBufferReuseMatchesFresh(t *testing.T) {
	perfKnobMatrix(t, "pooling", func(c *Config) { c.DisableBufferReuse = true })

	// Warm-pool differential: the second pooled run recycles the first one's
	// buffers; a stale byte surviving a recycle shows up here.
	for _, set := range []bugs.Set{bugs.None(), bugs.AllSet()} {
		fresh := mustRun(t, Config{NewFS: novaFS(set), DisableBufferReuse: true}, mixedWorkload())
		_ = mustRun(t, Config{NewFS: novaFS(set)}, mixedWorkload())
		warm := mustRun(t, Config{NewFS: novaFS(set)}, mixedWorkload())
		compareDeltaResults(t, "pooling/warm", fresh, warm)
	}
}

// TestOracleSnapshotShared: on an engine run the coordinator prepares each
// crash point's snapshot before dispatch, so every mid-syscall check is a
// cache hit — the counter that proves the sharing actually engages.
func TestOracleSnapshotShared(t *testing.T) {
	col := obs.New()
	res := mustRun(t, Config{NewFS: novaFS(bugs.None()), Obs: col}, mixedWorkload())
	hits := res.Obs.Count(obs.CtrOracleSnapshotHits)
	if hits == 0 {
		t.Fatal("no oracle snapshot hits on a mid-syscall-heavy workload")
	}
	off := obs.New()
	resOff := mustRun(t, Config{
		NewFS: novaFS(bugs.None()), Obs: off, DisableOracleSnapshot: true,
	}, mixedWorkload())
	if h := resOff.Obs.Count(obs.CtrOracleSnapshotHits); h != 0 {
		t.Errorf("DisableOracleSnapshot still hit the cache %d times", h)
	}
}

// TestOracleSnapshotImmutable: a prepared snapshot must be bitwise unchanged
// by the checks that consume it — including violating ones — and the
// prepared verdict must equal the fresh (unprepared) checker's verdict.
func TestOracleSnapshotImmutable(t *testing.T) {
	pre := vfs.State{
		"/":  dirState("/", "a", "b"),
		"/a": fileState("/a", "old", 1),
		"/b": fileState("/b", "bystander", 1),
	}
	post := pre.Clone()
	post["/a"] = fileState("/a", "new", 1)
	op := workload.Op{Kind: workload.OpPwrite, Path: "/a", FDSlot: -1, Size: 3}

	prepared := newAtomChecker(op, pre, post, true)
	ctx := crashCtx{phase: PhaseMid, sys: 0}.check()
	prepared.PrepareCrashPoint(ctx)
	snap := prepared.snaps.Load().(map[int]*oracleSnapshot)[0]
	if snap == nil {
		t.Fatal("PrepareCrashPoint published no snapshot")
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
		got := prepared.checkAtomic(crash, ctx)
		want := fresh.checkAtomic(crash, ctx)
		if got != want {
			t.Errorf("crash %d: prepared verdict %q != fresh verdict %q", i, got, want)
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

	// Preparing the same crash point again must be a no-op on the published
	// map (same snapshot pointer — no rebuild).
	prepared.PrepareCrashPoint(ctx)
	if again := prepared.snaps.Load().(map[int]*oracleSnapshot)[0]; again != snap {
		t.Error("re-preparing an already-prepared crash point rebuilt the snapshot")
	}
}

// stubGuest and stubContract stand in for the guest side of a check: Mount
// succeeds, the contract finds nothing. Guest code allocates by design and is
// not part of the zero-alloc contract; the stubs keep its share fixed and
// tiny so the engine's share can be pinned exactly.
type stubGuest struct{ vfs.FS }

func (*stubGuest) Mount() error { return nil }

type stubContract struct{}

func (stubContract) Name() string                         { return "stub" }
func (stubContract) Check(vfs.FS, *CheckContext) *Finding { return nil }

// hotLoopChecker builds a bare checker plus a replayed-write log shaped like
// one fence: overlapping and disjoint in-flight stores over a pool-sized
// device. It drives exactly the per-state hot path the engine's runner
// executes — dedup keying, arena saves, prime, coalesced apply, arm → guard →
// settle around a stub guest, rollback, revert — through checkOne, the same
// entry point walk uses.
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
		runID:    runIDs.Add(1),
		devSize:  len(base),
		imgPool:  poolFor(&imagePools, len(base)),
		slot:     newSlot(tryState{}),
		epoch:    time.Now(),
		timeout:  DefaultCheckTimeout,
		retries:  DefaultCheckRetries,
	}
	ck.scratch = grabBuf(len(base), false)
	return ck, base, log, subsets
}

// runHotLoop is one fence worth of per-state work on the hot path; it
// returns how many distinct states it checked.
func runHotLoop(ck *checker, base []byte, log *trace.Log, subsets [][]int) (states int) {
	ck.resetFenceScratch()
	for _, sub := range subsets {
		k := ck.stateKey(base, log, sub)
		if _, dup := ck.seen[internKey(k)]; dup {
			continue
		}
		key := internKey(ck.keyArena.save(k))
		ck.seen[key] = struct{}{}
		st := crashState{
			subset: ck.subArena.save(sub),
			spans:  ck.spanArena.save(ck.spans),
			key:    key,
			keyed:  true,
		}
		out, err := ck.checkOne(ck.slot, base, log, st, crashCtx{phase: PhaseMid, fence: 1, rank: states})
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
			defer putBuf(ck.scratch, false)
			states := 0
			for i := 0; i < 3; i++ { // warm arenas, the slot's image, dedup map
				states = runHotLoop(ck, base, log, subsets)
			}
			dev := ck.slot.wi.dev
			guest := testing.AllocsPerRun(20, func() {
				ck.checkState(dev, crashCtx{phase: PhaseMid}, time.Time{})
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

// BenchmarkStateKey measures dedup keying (span coalescing + diff scan) per
// crash state; allocs/op must read 0 once warm.
func BenchmarkStateKey(b *testing.B) {
	ck, base, log, subsets := hotLoopChecker(nil)
	defer putBuf(ck.scratch, false)
	ck.resetFenceScratch()
	sub := subsets[len(subsets)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ck.stateKey(base, log, sub)
	}
}

// BenchmarkDeltaApplyRelease measures one crash state's materialize + restore
// round trip on the coalesced path; allocs/op must read 0 once warm.
func BenchmarkDeltaApplyRelease(b *testing.B) {
	ck, base, log, subsets := hotLoopChecker(nil)
	defer putBuf(ck.scratch, false)
	ck.resetFenceScratch()
	sub := subsets[len(subsets)-1]
	k := ck.stateKey(base, log, sub)
	st := crashState{
		subset: ck.subArena.save(sub),
		spans:  ck.spanArena.save(ck.spans),
		key:    internKey(ck.keyArena.save(k)),
		keyed:  true,
	}
	wi := ck.grabImage()
	ck.prime(wi, base, log)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ck.applyDelta(wi, log, st, nil, true)
		ck.revert(wi, base, st, true, 0, false)
	}
}

// BenchmarkMaterializeState is the end-to-end per-state hot loop (keying,
// dedup, apply, guard, rollback, revert) the zero-alloc test pins.
func BenchmarkMaterializeState(b *testing.B) {
	ck, base, log, subsets := hotLoopChecker(nil)
	defer putBuf(ck.scratch, false)
	runHotLoop(ck, base, log, subsets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runHotLoop(ck, base, log, subsets)
	}
}
