package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
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

// mountLog records the SHA-256 of every crash image a run hands its guest
// to mount, in mount order. Checks run one at a time on a run's runner, so
// the order is the run's state order.
type mountLog struct {
	mu   sync.Mutex
	sums [][sha256.Size]byte
}

// hashMountFS adds the image it is handed to its log, then mounts it, or,
// with cold set, panics. The panic has the engine repair the working image,
// rebuilding it from the post-Mkfs template and every fence's writes, so the
// run's next state lands on an image rebuilt in full before its writes land.
// It forwards Remount, logging the image there too, so the engine keeps it
// across states as it keeps the system it wraps: the log covers the fresh
// mounts and the remounts alike.
type hashMountFS struct {
	vfs.FS
	pm   *persist.PM
	log  *mountLog
	cold bool
}

func (f hashMountFS) Mount() error { return f.mount(f.FS.Mount) }

func (f hashMountFS) Remount() error { return f.mount(f.FS.(vfs.Remounter).Remount) }

func (f hashMountFS) mount(mount func() error) error {
	img := make([]byte, f.pm.Size())
	f.pm.Mem().Peek(0, img)
	f.log.mu.Lock()
	f.log.sums = append(f.log.sums, sha256.Sum256(img))
	f.log.mu.Unlock()
	if f.cold {
		panic("mount on a cold image")
	}
	return mount()
}

// fullCopyRecheck runs w under cfg three times: plainly; logging each
// delta-materialized image as it mounts; and logging each state
// materialized on a rebuilt image, every mount panicking. The logged run must
// equal the plain one, and the two logs must agree state by state.
func fullCopyRecheck(t *testing.T, name string, cfg Config, w workload.Workload) {
	t.Helper()
	plain := mustRun(t, cfg, w)
	run := func(cold bool) (*Result, *mountLog) {
		log := &mountLog{}
		c, inner := cfg, cfg.NewFS
		c.NewFS = func(pm *persist.PM) vfs.FS { return hashMountFS{inner(pm), pm, log, cold} }
		return mustRun(t, c, w), log
	}
	warm, warmLog := run(false)
	sameResult(t, name, plain, warm)
	cold, coldLog := run(true)
	if len(warmLog.sums) != warm.StatesChecked || len(coldLog.sums) != cold.StatesChecked ||
		cold.StatesChecked != warm.StatesChecked {
		t.Fatalf("%s: %d and %d mounts for %d and %d states, want one per state and equal counts",
			name, len(warmLog.sums), len(coldLog.sums), warm.StatesChecked, cold.StatesChecked)
	}
	for i := range warmLog.sums {
		if warmLog.sums[i] != coldLog.sums[i] {
			t.Errorf("%s: state %d: the delta-materialized image differs from its full-copy rematerialization", name, i)
		}
	}
}

// TestDeltaMaterializeMatchesFullCopy: every crash image the delta path
// materializes — the working image advanced, perturbed and rolled back state
// by state — must be byte-identical to the same state materialized on an
// image rebuilt in full, on clean and violating runs, exhaustive and capped:
// the apply/rollback lifecycle never leaks one crash state's bytes into the
// next.
func TestDeltaMaterializeMatchesFullCopy(t *testing.T) {
	for _, set := range []bugs.Set{bugs.None(), bugs.AllSet()} {
		for _, cap := range []int{0, 2} {
			for _, w := range []workload.Workload{mixedWorkload(), renameWorkload()} {
				name := fmt.Sprintf("%s cap %d", w.Name, cap)
				if len(set.IDs()) > 0 {
					name += " buggy"
				}
				fullCopyRecheck(t, name, Config{NewFS: novaFS(set), Cap: cap}, w)
			}
		}
	}
}

// TestDeltaMaterializeMatchesFullCopyUnderFaults: with the fault injector
// on, tears and bit flips must land identically on the working image and on
// a rebuilt one — the injector is a pure function of (seed, state identity),
// and the rollback restores the torn key's runs and the flipped byte.
func TestDeltaMaterializeMatchesFullCopyUnderFaults(t *testing.T) {
	fc := &pmem.FaultConfig{Seed: 11, TearOneInN: 2, FlipOneInN: 3}
	fullCopyRecheck(t, "faults", Config{NewFS: novaFS(bugs.None()), Faults: fc, Obs: obs.New()}, mixedWorkload())
}

// refFS records like the file system it wraps and, on the check path,
// mounts nothing, so its contract sees each crash image exactly as the
// engine materialized it.
type refFS struct {
	vfs.FS
	pm *persist.PM
}

func (refFS) Mount() error { return nil }

// refImage is a crash image as refFS showed it to refContract.
type refImage []byte

func (refImage) Bytes() int { return 0 }

// refContract rebuilds every crash state it is handed by a per-store
// replay over its own recording of the workload: the fence's base, then
// the subset's writes in program order, each cut to its torn prefix, then
// the state's bit flip. The engine's image must equal it; so must the
// engine's recipe applied through a crash device of the contract's own, and
// rolling that device's undo log back must give the base back. Checks run
// one at a time, and a refFS guest never hangs, so no call overlaps another.
type refContract struct {
	t       *testing.T
	name    string
	fc      *pmem.FaultConfig
	log     *trace.Log
	fences  []int // log position of each fence, in ordinal order
	ends    []int // log position of each op's end
	base    []byte
	pending []int
	at      int // base holds what the walk persisted before log position at
	states  int
	tears   int
	flips   int
	ck      *checker // applies recipes to its working image, ck.cur.img
}

func newRefContract(t *testing.T, name string, fc *pmem.FaultConfig, newFS func(*persist.PM) vfs.FS, w workload.Workload) *refContract {
	dev := pmem.NewDevice(DefaultDevSize)
	pm := persist.New(dev)
	fs := newFS(pm)
	if err := fs.Mkfs(); err != nil {
		t.Fatal(err)
	}
	ck := &checker{scratch: make([]byte, DefaultDevSize), cur: cursor{img: make([]byte, DefaultDevSize)}}
	ck.dev, ck.undo = crashDevice(ck.cur.img)
	c := &refContract{t: t, name: name, fc: fc, log: trace.NewLog(), base: dev.CrashImage(), ck: ck}
	pm.Attach(persist.NewRecorder(c.log))
	workload.Resume(fs, w, nil, workload.Hooks{
		Before: func(i int, op workload.Op) { c.log.BeginSyscall(i, op.String()) },
		After:  func(i int, op workload.Op, _ error) { c.log.EndSyscall(i, op.String()) },
	})
	for i, e := range c.log.Entries() {
		switch e.Kind {
		case trace.KindFence:
			c.fences = append(c.fences, i)
		case trace.KindSyscallEnd:
			c.ends = append(c.ends, i)
		}
	}
	return c
}

func (c *refContract) Name() string { return "reference" }

func (c *refContract) Observe(fs vfs.FS, _ *Interner) Observation {
	pm := fs.(refFS).pm
	img := make(refImage, pm.Size())
	pm.Mem().Peek(0, img)
	return img
}

func (c *refContract) Probe(vfs.FS, Observation) *Finding { return nil }

func (c *refContract) Judge(o Observation, cctx *CheckContext) *Finding {
	pos := c.ends[cctx.Sys]
	if cctx.Fence > 0 {
		pos = c.fences[cctx.Fence-1]
	}
	if pos < c.at {
		c.t.Fatalf("%s: state %+v arrived after the walk passed it", c.name, *cctx)
	}
	// The base is every write some fence before pos persisted.
	for ; c.at < pos; c.at++ {
		switch e := c.log.At(c.at); {
		case e.IsWrite():
			c.pending = append(c.pending, c.at)
		case e.Kind == trace.KindFence:
			for _, idx := range c.pending {
				trace.Apply(c.base, c.log.At(idx))
			}
			c.pending = c.pending[:0]
		}
	}
	inj := c.ck.injector(cctx)
	ref := slices.Clone(c.base)
	sub := slices.Clone(cctx.Subset)
	slices.Sort(sub)
	for _, idx := range sub {
		e := c.log.At(idx)
		n := inj.TornPrefix(uint64(e.Seq), len(e.Data))
		if n < len(e.Data) {
			c.tears++
		}
		copy(ref[e.Off:], e.Data[:n])
	}
	if off, bit, flipped := inj.FlipSite(len(ref)); flipped {
		ref[off] ^= 1 << bit
		c.flips++
	}
	c.states++
	if !bytes.Equal(o.(refImage), ref) {
		c.t.Errorf("%s: engine image of %+v differs from its per-store replay", c.name, *cctx)
	}
	img := c.ck.cur.img
	copy(img, c.base)
	key := internKey(c.ck.stateKey(c.base, c.log, cctx.Subset, inj))
	c.ck.applyDelta(key, inj)
	if !bytes.Equal(img, ref) {
		c.t.Errorf("%s: the recipe of %+v builds another image than its per-store replay", c.name, *cctx)
	}
	c.ck.undo.Rollback()
	if !bytes.Equal(img, c.base) {
		c.t.Errorf("%s: rolling back the recipe of %+v leaves the image off its base", c.name, *cctx)
	}
	return nil
}

// TestStateKeyTornWriteExposesEarlierWrite: when a later write over an
// earlier one tears, the faulted key must show the earlier write's bytes
// past the cut — the image replay in program order produces, which a key
// built from untorn extents or from the later write alone would miss.
func TestStateKeyTornWriteExposesEarlierWrite(t *testing.T) {
	const size = 256
	log := trace.NewLog()
	log.Append(trace.KindNT, 64, bytes.Repeat([]byte{0xAA}, 32), "w")
	log.Append(trace.KindNT, 64, bytes.Repeat([]byte{0xBB}, 32), "w")
	var inj *pmem.Injector
	cut := 0
	for seed := uint64(1); inj == nil; seed++ {
		in := pmem.NewInjector(&pmem.FaultConfig{Seed: seed, TearOneInN: 2}, 0)
		if in.TornPrefix(0, 32) == 32 && in.TornPrefix(1, 32) < 32 {
			inj, cut = in, in.TornPrefix(1, 32)
		}
	}
	base := make([]byte, size)
	want := slices.Clone(base)
	copy(want[64:96], bytes.Repeat([]byte{0xAA}, 32))
	copy(want[64:64+cut], bytes.Repeat([]byte{0xBB}, cut))
	ck := &checker{scratch: make([]byte, size)}
	key := string(ck.stateKey(base, log, []int{0, 1}, inj))
	got := slices.Clone(base)
	forEachKeyRun(key, func(off int64, data string) { copy(got[off:], data) })
	if !bytes.Equal(got, want) {
		t.Fatalf("torn key (cut %d) builds %x, want %x", cut, got[64:96], want[64:96])
	}
	if ck.spansCoalesced != 0 {
		t.Fatalf("the torn pass counted %d coalesced spans", ck.spansCoalesced)
	}
}

// TestDeltaMaterializeMatchesReference: under torn writes and bit flips,
// every crash state the engine materializes from its one recipe — the diff
// key over torn write lengths, plus the flip — must equal a per-store replay
// built independently of the engine's keys, at every fence and after every
// call, on two systems with every bug injected; and rolling the recipe back
// must restore the base.
func TestDeltaMaterializeMatchesReference(t *testing.T) {
	fc := &pmem.FaultConfig{Seed: 5, TearOneInN: 2, FlipOneInN: 3}
	for _, sys := range []struct {
		name  string
		newFS func(bugs.Set) func(*persist.PM) vfs.FS
	}{{"nova", novaFS}, {"pmfs", pmfsFS}} {
		for _, w := range []workload.Workload{mixedWorkload(), renameWorkload()} {
			name := sys.name + " " + w.Name
			newFS := sys.newFS(bugs.AllSet())
			c := newRefContract(t, name, fc, newFS, w)
			c.ck.cfg.Faults = fc
			res := mustRun(t, Config{
				NewFS:   func(pm *persist.PM) vfs.FS { return refFS{newFS(pm), pm} },
				Checker: func(RunEnv) Checker { return c },
				Faults:  fc,
			}, w)
			if c.states != res.StatesChecked || c.states == 0 {
				t.Errorf("%s: %d states compared, %d checked", name, c.states, res.StatesChecked)
			}
			if c.tears == 0 || c.flips == 0 {
				t.Errorf("%s: %d tears and %d flips; the case must exercise both", name, c.tears, c.flips)
			}
		}
	}
}

// scribblePanicFS, on its first mount, writes the device's last byte — on
// a page no recorded write touches — and then panics in Mount.
type scribblePanicFS struct {
	vfs.FS
	pm     *persist.PM
	mounts *atomic.Int32
}

func (f scribblePanicFS) Mount() error {
	if f.mounts.Add(1) > 1 {
		return f.FS.Mount()
	}
	f.pm.Store(f.pm.Size()-1, []byte{0xFF})
	panic("scribbled, then crashed")
}

// TestDeltaMaterializePanicForfeitsImage: a guest that scribbles outside the
// run's pages and panics poisons the working image, and an engine panic after
// the next state's check then unwinds the run. The repair must take the
// scribble back before the rig returns to the free list: a byte outside the
// pages would survive every later page-union copy, which covers only set
// pages.
func TestDeltaMaterializePanicForfeitsImage(t *testing.T) {
	var mounts atomic.Int32
	cfg := Config{
		NewFS: func(pm *persist.PM) vfs.FS {
			return scribblePanicFS{nova.New(pm, bugs.None()), pm, &mounts}
		},
		Checker: func(env RunEnv) Checker {
			return bytesPanicChecker{NewOracleChecker(env)}
		},
	}
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		NewPrefixMemo().Run(context.Background(), cfg, renameWorkload())
	}()
	if recovered != "observation-bytes bug" {
		t.Fatalf("recovered %v, want the Observation.Bytes panic value", recovered)
	}
	if mounts.Load() == 0 {
		t.Fatal("no guest scribbled before the engine panic")
	}
	if err := CheckPooledPages(); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaMaterializeRetiresPoisonedImages: a guest that panics during
// Mount leaves the working image in an unknown state; the lease protocol
// must have it repaired, once per state, never merely rolled back. The
// hostile column of the engine matrix (internal/harness) pins the
// classification.
func TestDeltaMaterializeRetiresPoisonedImages(t *testing.T) {
	w := sandboxWorkload()
	col := obs.New()
	res := mustRun(t, Config{
		NewFS: panicNovaFS(bugs.None()), Obs: col,
	}, w)
	if retired := res.Obs.Count(obs.CtrImagesRetired); retired != int64(res.StatesChecked) || retired == 0 {
		t.Errorf("panicking guest repaired %d images over %d states, want one per state", retired, res.StatesChecked)
	}
}

// TestDeltaMaterializeRetiresAbandonedImages: a check that outlives its
// deadline abandons its goroutine, which still owns the buffer it mounted —
// the supervisor must rebuild the image in a fresh one rather than race the
// rollback.
func TestDeltaMaterializeRetiresAbandonedImages(t *testing.T) {
	col := obs.New()
	res := mustRun(t, Config{
		NewFS:        hangNovaFS(bugs.None()),
		CheckTimeout: 40 * time.Millisecond,
		Obs:          col,
	}, sandboxWorkload())
	if len(res.Violations) == 0 {
		t.Fatal("hanging guest produced no timeout violations")
	}
	for i, v := range res.Violations {
		if v.Kind != VTimeout {
			t.Fatalf("violation %d: kind %v, want VTimeout", i, v.Kind)
		}
	}
	if retired := res.Obs.Count(obs.CtrImagesRetired); retired == 0 {
		t.Error("timed-out checks repaired no images")
	}
}

// TestDeltaMaterializeBytesScaleWithDiff: the perf contract. Per-state
// materialization cost must track the crash state's diff (subset bytes +
// guest-mutated bytes), not the device size.
func TestDeltaMaterializeBytesScaleWithDiff(t *testing.T) {
	run := func(devSize int64) *Result {
		return mustRun(t, Config{NewFS: novaFS(bugs.None()), DevSize: devSize, Obs: obs.New()}, mixedWorkload())
	}
	res := run(DefaultDevSize)
	states := int64(res.StatesChecked)
	if states == 0 {
		t.Fatal("no states checked")
	}
	mat := res.Obs.Count(obs.CtrBytesMaterialized)
	perState := mat / states
	if perState >= DefaultDevSize/10 {
		t.Errorf("bytes materialized per state = %d, want well under device size %d",
			perState, int64(DefaultDevSize))
	}
	// Every clean check rolls its image back; the counter proves the undo
	// log is engaged on the hot path.
	if res.Obs.Count(obs.CtrBytesRolledBack) == 0 {
		t.Error("no bytes rolled back on a clean run")
	}
	// The same workload on a device eight times the size copies the same
	// bytes per state: apply and rollback traffic is a property of the diff
	// alone.
	big := run(8 * DefaultDevSize)
	copied := func(r *Result) float64 {
		return float64(r.Obs.Count(obs.CtrBytesMaterialized)+r.Obs.Count(obs.CtrBytesRolledBack)) /
			float64(r.StatesChecked)
	}
	if small, large := copied(res), copied(big); large > small*1.1 || small > large*1.1 {
		t.Errorf("copied bytes per state moved with device size: 1x=%.0f 8x=%.0f", small, large)
	}
}

// TestDeltaMaterializePostSyscallSkipsCopy: post-syscall states (empty
// subset) are the working image as it stands and need no materialization
// work at all —
// nothing beyond the guest's own mutations is copied for them. Observable
// as total materialized bytes staying below one device copy on a workload
// dominated by post-syscall states.
func TestDeltaMaterializePostSyscallSkipsCopy(t *testing.T) {
	col := obs.New()
	res := mustRun(t, Config{NewFS: novaFS(bugs.None()), Obs: col}, sandboxWorkload())
	if res.StatesChecked == 0 {
		t.Fatal("no states checked")
	}
	mat := res.Obs.Count(obs.CtrBytesMaterialized)
	if mat >= DefaultDevSize {
		t.Errorf("tiny workload materialized %d bytes, want < one device copy (%d)",
			mat, int64(DefaultDevSize))
	}
}

// hostileFS logs the SHA-256 of every image it is handed to mount, as
// hashMountFS does, and turns hostile at the mount ordinals its plan names:
// it scribbles over the whole device, inside and outside the run's pages,
// and then hangs, panics or raises a media error. The hung guest scribbles
// only once the next mount has begun — on the replacement runner, after the
// repair — and that mount logs its image only after the scribble landed.
type hostileFS struct {
	vfs.FS
	pm   *persist.PM
	plan *hostilePlan
}

// hostilePlan names 1-based mount ordinals (0: none) and records the mounts.
type hostilePlan struct {
	hang, panicAt, mediaAt int32
	mounts                 atomic.Int32
	log                    mountLog
	next, scribbled        chan struct{}
	release                chan struct{}
}

func (f hostileFS) Mount() error {
	p := f.plan
	n := p.mounts.Add(1)
	if p.hang != 0 && n == p.hang+1 {
		close(p.next)
		<-p.scribbled
	}
	img := make([]byte, f.pm.Size())
	f.pm.Mem().Peek(0, img)
	p.log.mu.Lock()
	p.log.sums = append(p.log.sums, sha256.Sum256(img))
	p.log.mu.Unlock()
	scribble := func() { f.pm.Mem().Patch(0, bytes.Repeat([]byte{0xA5}, int(f.pm.Size()))) }
	switch n {
	case p.hang:
		<-p.next
		scribble()
		close(p.scribbled)
		<-p.release
		return errors.New("released after the test")
	case p.panicAt:
		scribble()
		panic("scribbled, then crashed")
	case p.mediaAt:
		scribble()
		panic(&pmem.MediaError{Off: 0})
	}
	return f.FS.Mount()
}

// TestRepairMatchesUnhinderedRun: after a takeover, a guest panic and a
// media error, each at a mid-run state, and after all three in one run,
// every later state of that run mounts an image whose SHA-256 equals the
// unhindered run's: the repair rebuilds exactly the walk's base, in place
// or, after the takeover, in a buffer the late guest's scribble cannot
// reach.
func TestRepairMatchesUnhinderedRun(t *testing.T) {
	w := takeoverWorkload()
	run := func(plan *hostilePlan) (*Result, [][sha256.Size]byte) {
		plan.next, plan.scribbled, plan.release = make(chan struct{}), make(chan struct{}), make(chan struct{})
		t.Cleanup(func() { close(plan.release) })
		inner := novaFS(bugs.AllSet())
		res := mustRun(t, Config{
			NewFS:        func(pm *persist.PM) vfs.FS { return hostileFS{inner(pm), pm, plan} },
			CheckTimeout: takeoverTimeout,
			Obs:          obs.New(),
		}, w)
		plan.log.mu.Lock()
		defer plan.log.mu.Unlock()
		return res, plan.log.sums
	}
	healthy, want := run(&hostilePlan{})
	n := int32(len(want))
	if int(n) != healthy.StatesChecked || n < 8 {
		t.Fatalf("%d mounts for %d states; want one per state, and enough states to disrupt", n, healthy.StatesChecked)
	}
	for _, tc := range []struct {
		name                string
		plan                *hostilePlan
		repairs, quarantine int
	}{
		{"takeover", &hostilePlan{hang: n / 4}, 1, 1},
		{"panic", &hostilePlan{panicAt: n / 2}, 1, 1},
		{"media error", &hostilePlan{mediaAt: 3 * n / 4}, 1, 0},
		{"all three", &hostilePlan{hang: n / 4, panicAt: n / 2, mediaAt: 3 * n / 4}, 3, 2},
	} {
		res, got := run(tc.plan)
		if len(got) != len(want) {
			t.Fatalf("%s: %d mounts, the unhindered run made %d", tc.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: mount %d of %d: the image differs from the unhindered run's", tc.name, i+1, n)
			}
		}
		if r := res.Obs.Count(obs.CtrImagesRetired); r != int64(tc.repairs) || len(res.Quarantined) != tc.quarantine {
			t.Errorf("%s: %d repairs and %d quarantined, want %d and %d", tc.name, r, len(res.Quarantined), tc.repairs, tc.quarantine)
		}
	}
}
