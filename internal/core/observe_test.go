package core

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/fs/memfs"
	"chipmunk/internal/obs"
	"chipmunk/internal/pmem"
	"chipmunk/internal/trace"
	"chipmunk/internal/vfs"
)

// TestImageHashKeysLines: the image hash is a function of content and
// place. Zero images hash to zero, and the same line moved, or repeated
// at another index, changes it.
func TestImageHashKeysLines(t *testing.T) {
	img := func(at ...int64) []byte {
		b := make([]byte, 3*pmem.PageSize)
		for _, l := range at {
			for i := range hashLine {
				b[l*hashLine+int64(i)] = byte(i + 1)
			}
		}
		return b
	}
	if h := hashImage(img()); h != (imageHash{}) {
		t.Fatalf("zero image hashes to %x", h)
	}
	if hashImage(img(1)) != hashImage(img(1)) {
		t.Fatal("equal images hash differently")
	}
	if hashImage(img(1)) == hashImage(img(2)) {
		t.Error("a line hashes the same at two indices")
	}
	if hashImage(img(1, 70)) == (imageHash{}) {
		t.Error("a line repeated at two indices cancels out")
	}
}

// TestStateHashMatchesImageHash holds the incremental hash to hashImage:
// every subset of writes that straddle lines and pages, materialized on the
// base, after each fence lands writes on the base, and after the hasher
// moves to another run's start image.
func TestStateHashMatchesImageHash(t *testing.T) {
	const size = 4 * pmem.PageSize
	base := make([]byte, size)
	for i := range base[:2*pmem.PageSize] {
		base[i] = byte(i * 7)
	}
	log := trace.NewLog()
	write := func(off int64, n int, seed byte) {
		data := make([]byte, n)
		for i := range data {
			data[i] = seed + byte(i)
		}
		log.Append(trace.KindNT, off, data, "w")
	}
	write(100, 200, 1)             // four lines of one page
	write(pmem.PageSize-10, 20, 2) // across a page boundary
	write(3*pmem.PageSize+8, 64, 3)
	write(150, 8, 4) // inside the first write
	write(size-2, 2, 5)
	pages := pmem.NewPageSet(size)
	pages.Mark(0, size)

	newChecker := func(img []byte, h *imageHasher) *checker {
		ck := &checker{scratch: make([]byte, size), rg: &rig{baseline: img, basePages: pages, hasher: h},
			cur: cursor{img: img, log: log}}
		ck.syncHasher()
		return ck
	}
	ck := newChecker(base, nil)
	all := []int{0, 1, 2, 3, 4}
	checkStates := func(when string) {
		t.Helper()
		if got, want := ck.stateHash(ck.cur.img, crashState{}), hashImage(ck.cur.img); got != want {
			t.Fatalf("%s: base hash %x, want %x", when, got, want)
		}
		for mask := 1; mask < 1<<len(all); mask++ {
			var sub []int
			for i, idx := range all {
				if mask&(1<<i) != 0 {
					sub = append(sub, idx)
				}
			}
			key := string(ck.stateKey(ck.cur.img, log, sub, nil))
			img := append([]byte(nil), ck.cur.img...)
			for _, idx := range sub {
				trace.Apply(img, log.At(idx))
			}
			if got, want := ck.stateHash(img, crashState{subset: sub, key: key}), hashImage(img); got != want {
				t.Fatalf("%s: subset %v hashes to %x, want %x", when, sub, got, want)
			}
		}
	}
	checkStates("no fence")
	for gen, fence := range [][]int{{0, 3}, {1, 4}, {2}} {
		ck.applyFence(fence)
		checkStates(fmt.Sprintf("fence %d", gen+1))
	}

	other := make([]byte, size)
	copy(other[pmem.PageSize:], base[:pmem.PageSize])
	ck = newChecker(other, ck.hasher)
	checkStates("another start image")
}

// judgeMidOnly is an oracle contract whose judgement fails every state
// inside a call and passes every state between calls, and whose probe
// fails every state it sees: a post-syscall state whose image equals its
// call's last fence's full set was observed there without a probe.
type judgeMidOnly struct{ *oracleChecker }

func (j judgeMidOnly) Judge(o Observation, cctx *CheckContext) *Finding {
	if cctx.Phase == PhaseMid {
		return &Finding{Kind: VAtomicity, Detail: "mid"}
	}
	return nil
}

func (judgeMidOnly) Probe(vfs.FS, Observation) *Finding {
	return &Finding{Kind: VUsability, Detail: "probe"}
}

// TestObservationWithoutProbeIsMountedAgain: a state whose image's entry
// holds no probe result, because its judgement failed, is not passed by
// the entry but mounted again and probed, as an unshared run does.
func TestObservationWithoutProbeIsMountedAgain(t *testing.T) {
	cfg := Config{
		NewFS:   novaFS(bugs.None()),
		Checker: func(env RunEnv) Checker { return judgeMidOnly{NewOracleChecker(env).(*oracleChecker)} },
		Obs:     obs.New(),
	}
	memo := NewPrefixMemo()
	var served int64
	for _, w := range ace.Seq1()[:40] {
		want, err := RunContext(context.Background(), cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := memo.Run(context.Background(), cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		served += got.Obs.Count(obs.CtrObservationsServed)
		if len(got.Violations) != len(want.Violations) {
			t.Fatalf("%s: %d violations through the table, %d unshared", w.Name, len(got.Violations), len(want.Violations))
		}
		for i := range want.Violations {
			if g, w := got.Violations[i], want.Violations[i]; g.Kind != w.Kind || g.Detail != w.Detail || g.Syscall != w.Syscall || g.Phase != w.Phase {
				t.Fatalf("%s: violation %d is %v through the table, %v unshared", w.Workload.Name, i, g, w)
			}
		}
	}
	if served == 0 {
		t.Fatal("no observation served: the comparison is vacuous")
	}
}

// hangOnceJudge is an oracle contract whose first failing judgement hangs
// until the supervisor has abandoned it and started the replacement runner,
// then returns.
type hangOnceJudge struct {
	Checker
	runners func() int64
	hung    *atomic.Bool
}

func (h *hangOnceJudge) Judge(o Observation, cctx *CheckContext) *Finding {
	f := h.Checker.Judge(o, cctx)
	if f != nil && h.hung.CompareAndSwap(false, true) {
		for end := time.Now().Add(10 * time.Second); h.runners() < 2 && time.Now().Before(end); {
			time.Sleep(50 * time.Microsecond) // the poll only waits for the takeover: its pace cannot change the verdict
		}
	}
	return f
}

// TestObservationNotStoredFromAbandonedPhase: a guest phase the supervisor
// abandoned stores nothing in the observation table, even when it returns
// before the table is next consulted. The abandoned state is quarantined and
// its op is not published to the prefix memo, so a second run through the
// same memo walks that op again. Its image must then be mounted once more
// than in an unstalled run: by a later state of the stalled run that shows
// the same image, or else by the second run. The second run must equal the
// memo-less one.
func TestObservationNotStoredFromAbandonedPhase(t *testing.T) {
	ctx := context.Background()
	cfg := Config{NewFS: novaFS(bugs.AllSet()), CheckTimeout: takeoverTimeout, Obs: obs.New()}
	w := renameWorkload()
	want := mustRun(t, cfg, w)
	plain, err := NewPrefixMemo().Run(ctx, cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	memo := NewPrefixMemo()
	hung := new(atomic.Bool)
	stalled := cfg
	stalled.Checker = func(env RunEnv) Checker {
		return &hangOnceJudge{Checker: NewOracleChecker(env), hung: hung, runners: func() int64 {
			s := env.Obs.Snapshot()
			return s.Count(obs.CtrSandboxRunners)
		}}
	}
	goroutines := runtime.NumGoroutine()
	got, err := memo.Run(ctx, stalled, w)
	if err != nil {
		t.Fatal(err)
	}
	if !hung.Load() || len(got.Quarantined) != 1 || got.Quarantined[0].Kind != VTimeout {
		t.Fatalf("hung %v, ledger %v; want a hang and its one VTimeout entry", hung.Load(), got.Quarantined)
	}
	// Let the abandoned guest unwind past the point where it could have
	// stored its entry.
	for patience := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(patience) {
			t.Fatal("the abandoned guest's goroutine never exited")
		}
		time.Sleep(time.Millisecond) // the poll only waits: a slower exit costs time, never the verdict
	}
	again, err := memo.Run(ctx, cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, w.Name, want, again)
	mounts := func(r *Result) int64 { return r.Obs.Stage(obs.StageMount).Count }
	if g, a, p := mounts(got), mounts(again), mounts(plain); g+a != p+1 {
		t.Errorf("%d guest mounts with the hang and %d re-walking its op, %d in an unstalled run; want one more in all", g, a, p)
	}
	if again.Obs.Count(obs.CtrObservationsServed) == 0 {
		t.Error("no observation served re-walking the abandoned op: the comparison is vacuous")
	}
}

// hashImage is the image hash of img, from scratch.
func hashImage(img []byte) imageHash {
	var h imageHash
	for l := int64(0); l*hashLine < int64(len(img)); l++ {
		h.xor(lineHash(img, l))
	}
	return h
}

// nlinkFS reports one path's link count as nlink: a recovered state that
// differs from its file system's only there.
type nlinkFS struct {
	*memfs.FS
	path  string
	nlink uint32
}

func (f nlinkFS) Stat(path string) (vfs.Stat, error) {
	st, err := f.FS.Stat(path)
	if path == f.path {
		st.Nlink = f.nlink
	}
	return st, err
}

// linkedFS holds /a, /b, /c and /d with equal contents, each of them one of
// two links to an inode: the pairs name which paths share one.
func linkedFS(t *testing.T, pairs [2][2]string, data string) *memfs.FS {
	t.Helper()
	fs := memfs.New()
	if err := fs.Mkfs(); err != nil {
		t.Fatal(err)
	}
	for _, pr := range pairs {
		fd, err := fs.Create(pr[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Pwrite(fd, []byte(data), 0); err != nil {
			t.Fatal(err)
		}
		fs.Close(fd)
		if err := fs.Link(pr[0], pr[1]); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

// TestObserveSharesIdenticalStates: a capture identical to one the
// Interner holds is answered with that observation, and one that differs
// in a data byte, a link count, an xattr, or only in inode numbers (the
// hard-link partition) gets its own, which Judge gives its own verdict —
// even when its digest collides with another state's.
func TestObserveSharesIdenticalStates(t *testing.T) {
	base := linkedFS(t, [2][2]string{{"/a", "/b"}, {"/c", "/d"}}, "x")
	xattr := linkedFS(t, [2][2]string{{"/a", "/b"}, {"/c", "/d"}}, "x")
	if err := xattr.Setxattr("/c", "user.k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		fs   vfs.FS
	}{
		{"data byte", linkedFS(t, [2][2]string{{"/a", "/b"}, {"/c", "/d"}}, "y")},
		{"nlink", nlinkFS{linkedFS(t, [2][2]string{{"/a", "/b"}, {"/c", "/d"}}, "x"), "/a", 3}},
		{"xattr", xattr},
		{"inode numbers", linkedFS(t, [2][2]string{{"/a", "/c"}, {"/b", "/d"}}, "x")},
	}
	col := obs.New()
	chk := NewOracleChecker(RunEnv{OracleStates: []vfs.State{base.State()}, Obs: col})
	cctx := &CheckContext{Phase: PhasePost, Sys: -1}
	in := &Interner{}

	first := chk.Observe(base, in)
	if first.Bytes() != 0 {
		t.Errorf("an interned observation holds %d bytes beyond the interner", first.Bytes())
	}
	if again := chk.Observe(base, in); again != first {
		t.Fatal("the same capture observed twice gave two observations")
	}
	if f := chk.Judge(first, cctx); f != nil {
		t.Fatalf("the oracle's own state fails: %s", f.Detail)
	}
	baseState, err := vfs.Capture(base)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[Observation]string{first: "base"}
	for _, v := range variants {
		o := chk.Observe(v.fs, in)
		if prev, ok := seen[o]; ok {
			t.Errorf("%s: shares the observation of %s", v.name, prev)
		}
		seen[o] = v.name
		if chk.Observe(v.fs, in) != o {
			t.Errorf("%s: observed twice, not shared", v.name)
		}
		if f := chk.Judge(o, cctx); f == nil || f.Kind != VSynchrony {
			t.Errorf("%s: judged %v, want a synchrony violation", v.name, f)
		}
		st, err := vfs.Capture(v.fs)
		if err != nil {
			t.Fatal(err)
		}
		if in.state(baseState.Digest(stateSeed), st) != nil {
			t.Errorf("%s: a digest collision with the base state shares its observation", v.name)
		}
	}
	if f := chk.Judge(first, cctx); f != nil {
		t.Errorf("the base state's verdict moved: %s", f.Detail)
	}
	snap := col.Snapshot()
	if got, want := snap.Count(obs.CtrObservationsShared), int64(1+len(variants)); got != want {
		t.Errorf("observations-shared = %d, want %d", got, want)
	}
}

// TestObserveRepeatAllocBudget pins what observing a state the Interner
// holds costs beyond its capture: a digest and a comparison, no copy.
// Measured on go1.24 linux/amd64: none, against 4 when every capture was
// copied out.
func TestObserveRepeatAllocBudget(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	const budget = 2
	fs := linkedFS(t, [2][2]string{{"/a", "/b"}, {"/c", "/d"}}, "contents")
	if err := fs.Mkdir("/e"); err != nil {
		t.Fatal(err)
	}
	chk := NewOracleChecker(RunEnv{Scratch: new(Scratch)})
	in := &Interner{}
	first := chk.Observe(fs, in)
	scr := new(vfs.Scratch)
	capture := testing.AllocsPerRun(100, func() {
		if _, err := vfs.CaptureWith(fs, scr); err != nil {
			t.Fatal(err)
		}
	})
	repeat := testing.AllocsPerRun(100, func() {
		if chk.Observe(fs, in) != first {
			t.Fatal("a repeat capture was not shared")
		}
	})
	if got := repeat - capture; got > budget {
		t.Errorf("a repeat Observe allocates %.0f times beyond its capture (%.0f in all), budget %d", got, repeat, budget)
	}
}
