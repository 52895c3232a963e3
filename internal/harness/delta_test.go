package harness

import (
	"context"
	"crypto/sha256"
	"sync"
	"sync/atomic"
	"testing"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
	"chipmunk/internal/obs"
	"chipmunk/internal/persist"
	"chipmunk/internal/pmem"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

// crashStateFS wraps the crash-state file systems newFS builds in wrap. A
// run's first file system is its recording target, which stays unwrapped so
// the record pass keeps the system's optional interfaces (xattrs).
func crashStateFS(newFS func(*persist.PM) vfs.FS, wrap func(vfs.FS, *persist.PM) vfs.FS) func(*persist.PM) vfs.FS {
	var recorded atomic.Bool
	return func(pm *persist.PM) vfs.FS {
		if !recorded.Swap(true) {
			return newFS(pm)
		}
		return wrap(newFS(pm), pm)
	}
}

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

// TestDeltaMaterializeMatchesFullCopyAllSystems: the O(diff) delta path
// must match a full copy across all seven systems, on violating runs
// (published bug sets) and clean ones alike. Each workload runs twice with
// every mounted image logged: plainly, where it must reproduce its
// engine-matrix golden — the full-copy engine's recorded output — and with
// every mount panicking, so each state is materialized on an image rebuilt
// in full. The two logs must agree state by state.
func TestDeltaMaterializeMatchesFullCopyAllSystems(t *testing.T) {
	for _, sys := range Systems() {
		t.Run(sys.Name, func(t *testing.T) {
			t.Parallel()
			cfg, suite, want := matrixSlice(t, sys, 8)
			run := func(w workload.Workload, cold bool) (*core.Result, *mountLog) {
				log := &mountLog{}
				c := cfg
				c.NewFS = crashStateFS(cfg.NewFS, func(fs vfs.FS, pm *persist.PM) vfs.FS {
					return hashMountFS{fs, pm, log, cold}
				})
				res, err := core.RunContext(context.Background(), c, w)
				if err != nil {
					t.Fatalf("%s (cold %v): %v", w.Name, cold, err)
				}
				return res, log
			}
			for i, w := range suite {
				plain, warmLog := run(w, false)
				checkGolden(t, w.Name, plain, want[i])
				cold, coldLog := run(w, true)
				if len(warmLog.sums) != plain.StatesChecked || len(coldLog.sums) != cold.StatesChecked ||
					cold.StatesChecked != plain.StatesChecked {
					t.Fatalf("%s: %d and %d mounts for %d and %d states, want one per state and equal counts",
						w.Name, len(warmLog.sums), len(coldLog.sums), plain.StatesChecked, cold.StatesChecked)
				}
				for k := range warmLog.sums {
					if warmLog.sums[k] != coldLog.sums[k] {
						t.Errorf("%s: state %d: the delta-materialized image differs from its full-copy rematerialization", w.Name, k)
					}
				}
			}
		})
	}
}

// unflushedFS leaves one cached store at the end of Mkfs that is never
// flushed, on a page no system otherwise writes: the footprint of a
// missing-flush bug. Every page the seven models store to is also fenced
// later, so without it only Fence's mark would ever be exercised.
type unflushedFS struct {
	vfs.FS
	pm *persist.PM
}

func (f unflushedFS) Mkfs() error {
	if err := f.FS.Mkfs(); err != nil {
		return err
	}
	f.pm.Store(f.pm.Size()-100, []byte("never flushed"))
	return nil
}

// TestDeltaMaterializePagedPoolsMatchFresh: recycled rigs are cleared and
// copied only over their page sets, so a byte some writer failed to mark
// would survive into whichever run recycles the buffer next. A rotation of
// the seven systems over distinct seq-1 / seq-1-dax workloads on one device
// size — clean, with every published bug, and with faults injected (the
// torn-write and bit-flip rollback paths) — runs forward and then reversed,
// so every run inherits its rig from a different predecessor each time; each run's Result must be the same both ways, and
// every free-listed buffer must stay zero outside its page set.
func TestDeltaMaterializePagedPoolsMatchFresh(t *testing.T) {
	type pooledRun struct {
		name string
		cfg  core.Config
		w    workload.Workload
	}
	var runs []pooledRun
	seq1, dax := ace.Seq1(), ace.Seq1Dax()
	systems := Systems()
	for _, m := range []struct {
		name   string
		buggy  bool
		faults *pmem.FaultConfig
	}{
		{"clean", false, nil},
		{"buggy", true, nil},
		{"faults", false, pmem.DefaultFaults(5)},
	} {
		for round := 0; round < 3; round++ {
			for i, sys := range systems {
				set, suite := bugs.None(), seq1
				if m.buggy {
					set = bugs.AllSet()
				}
				if sys.Weak {
					set, suite = bugs.None(), dax
				}
				w := suite[(round*len(systems)+i)*5%len(suite)]
				cfg := Options{Bugs: set, Cap: 2, Faults: m.faults, Obs: obs.New()}.ConfigFor(sys)
				newFS := cfg.NewFS
				cfg.NewFS = func(pm *persist.PM) vfs.FS { return unflushedFS{newFS(pm), pm} }
				runs = append(runs, pooledRun{m.name + "/" + sys.Name + "/" + w.Name, cfg, w})
			}
		}
	}
	forward := make([]*core.Result, len(runs))
	for _, order := range [][]int{identity(len(runs)), reversed(identity(len(runs)))} {
		for _, i := range order {
			r := runs[i]
			res, err := core.RunContext(context.Background(), r.cfg, r.w)
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			if err := core.CheckPooledPages(); err != nil {
				t.Fatalf("after %s: %v", r.name, err)
			}
			if forward[i] == nil {
				forward[i] = res
			} else if d := resultDiff(forward[i], res); d != "" {
				t.Errorf("%s: forward and reversed rotations differ: %s", r.name, d)
			}
		}
	}
}
