package harness_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chipmunk/internal/ace"
	"chipmunk/internal/app/kvstore"
	"chipmunk/internal/app/kvwork"
	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
	"chipmunk/internal/fs/winefs"
	"chipmunk/internal/harness"
	"chipmunk/internal/persist"
	"chipmunk/internal/pmem"
	"chipmunk/internal/trace"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

// TestGuestTracesPinned pins what every guest model writes and reads. For
// each system, and WineFS in relaxed mode besides, with no bugs and with
// all bugs, over seq1, kv-smoke, a namespace churn workload and a data
// churn workload, it keeps two digests: one of the recorded
// trace (every persistence call and, with TraceStores on, every plain
// store, plus each op's result), and one of what mounting the persistent
// image after every op shows (the mount's error, the writes recovery makes,
// its PM reads in order, and the recovered namespace). A change to a
// model's journal, allocator or recovery walk that moves no verdict still
// moves a digest here. Regenerate only when a change is meant to:
//
//	CHIPMUNK_UPDATE_GOLDENS=1 go test ./internal/harness -run GuestTracesPinned
func TestGuestTracesPinned(t *testing.T) {
	suites := []struct {
		name string
		ws   []workload.Workload
	}{
		{"seq1", ace.Seq1()},
		{"kv-smoke", ace.KVSmoke()},
		{"churn", []workload.Workload{churnWorkload()}},
		{"datachurn", []workload.Workload{dataChurnWorkload()}},
	}
	systems := append(harness.Systems(), harness.System{Name: "winefs-relaxed",
		Factory: func(set bugs.Set) func(pm *persist.PM) vfs.FS {
			return func(pm *persist.PM) vfs.FS { return winefs.New(pm, set, winefs.WithMode(winefs.Relaxed)) }
		}})
	lines := make([]string, len(systems))
	t.Run("systems", func(t *testing.T) {
		for i, sys := range systems {
			t.Run(sys.Name, func(t *testing.T) {
				t.Parallel()
				var b strings.Builder
				for _, mode := range []struct {
					name string
					set  bugs.Set
				}{{"none", bugs.None()}, {"all", bugs.AllSet()}} {
					for _, s := range suites {
						tr, mnt := sha256.New(), sha256.New()
						for _, w := range s.ws {
							log := pinRun(t, sys.Factory(mode.set), w, tr, mnt)
							if s.name == "churn" && mode.name == "none" {
								checkChurnReach(t, sys.Name, log)
							}
						}
						fmt.Fprintf(&b, "%s %s %s trace=%x mount=%x\n", sys.Name, mode.name, s.name, tr.Sum(nil)[:8], mnt.Sum(nil)[:8])
					}
				}
				lines[i] = b.String()
			})
		}
	})
	got := strings.Join(lines, "")
	path := filepath.Join("testdata", "traces", "guests.golden")
	if os.Getenv("CHIPMUNK_UPDATE_GOLDENS") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (generate with CHIPMUNK_UPDATE_GOLDENS=1): %v", err)
	}
	if string(want) != got {
		t.Errorf("a guest model's trace moved\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// churnWorkload makes and retires one name 60 times through a rename into
// the root: enough journal traffic to wrap PMFS's record ring and every
// WineFS ring, and to cross WineFS's reclaim threshold.
func churnWorkload() workload.Workload {
	ops := []workload.Op{{Kind: workload.OpMkdir, Path: "/d0", FDSlot: -1}}
	for i := 0; i < 60; i++ {
		f := fmt.Sprintf("/d0/f%d", i%5)
		ops = append(ops,
			workload.Op{Kind: workload.OpCreat, Path: f, FDSlot: -1},
			workload.Op{Kind: workload.OpRename, Path: f, Path2: "/r", FDSlot: -1},
			workload.Op{Kind: workload.OpUnlink, Path: "/r", FDSlot: -1})
	}
	return workload.Workload{Name: "churn", Ops: ops}
}

// dataChurnWorkload writes three blocks to a new file six times over
// three names, and unlinks the previous round's file each round: the
// freed blocks are handed out again, so where a model's data allocator
// looks first shows in the trace.
func dataChurnWorkload() workload.Workload {
	var ops []workload.Op
	for i := 0; i < 6; i++ {
		f := fmt.Sprintf("/f%d", i%3)
		ops = append(ops,
			workload.Op{Kind: workload.OpCreat, Path: f, FDSlot: -1},
			workload.Op{Kind: workload.OpWrite, Path: f, FDSlot: -1, Size: 3 * 4096, Seed: uint32(i + 1)},
			workload.Op{Kind: workload.OpUnlink, Path: fmt.Sprintf("/f%d", (i+2)%3), FDSlot: -1})
	}
	return workload.Workload{Name: "datachurn", Ops: ops}
}

// pinRun formats a device, runs w on it with every store traced, and hashes
// the trace and each op's result into tr. After every op it mounts a fresh
// instance on the persistent image and hashes what that shows into mnt.
// It returns the run's trace.
func pinRun(t *testing.T, newFS func(*persist.PM) vfs.FS, w workload.Workload, tr, mnt hash.Hash) *trace.Log {
	t.Helper()
	dev := pmem.NewDevice(core.DefaultDevSize)
	pm := persist.New(dev)
	pm.TraceStores = true
	log := trace.NewLog()
	pm.Attach(persist.NewRecorder(log))
	fs := newFS(pm)
	if err := fs.Mkfs(); err != nil {
		t.Fatalf("%s: mkfs: %v", w.Name, err)
	}
	volatile := make([]byte, core.DefaultDevSize)
	results := workload.Run(fs, w, workload.Hooks{
		Before: func(i int, op workload.Op) { log.BeginSyscall(i, op.String()) },
		After: func(i int, op workload.Op, _ error) {
			log.EndSyscall(i, op.String())
			img := dev.CrashImage()
			copy(volatile, img)
			pinMount(newFS, pmem.WrapImages(volatile, img), mnt)
		},
		App: kvwork.Factory(kvstore.Bugs{}),
	})
	for _, e := range log.Entries() {
		fmt.Fprintf(tr, "%d %d %d %s %d:", e.Kind, e.Off, e.Sys, e.Name, len(e.Data))
		tr.Write(e.Data)
	}
	for i, r := range results {
		fmt.Fprintf(tr, "result %d %v\n", i, r.Err)
	}
	return log
}

// pinMount mounts a fresh instance on a just-rebooted device and hashes
// into h, in order, every write and read recovery makes, the mount's
// outcome, and the namespace it recovered.
func pinMount(newFS func(*persist.PM) vfs.FS, dev *pmem.Device, h hash.Hash) {
	pm := persist.New(dev)
	pm.TraceStores = true
	pm.Attach(pinProbe{h})
	fs := newFS(pm)
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return fs.Mount()
	}()
	fmt.Fprintf(h, "mount %v\n", err)
	if err != nil {
		return
	}
	st, err := vfs.Capture(fs)
	fmt.Fprintf(h, "capture %v\n", err)
	for _, p := range st.Paths() {
		f := st[p]
		fmt.Fprintf(h, "%s %d %d %d %q %q %d:", f.Path, f.Type, f.Nlink, f.Size, f.Entries, f.Xattrs, len(f.Data))
		h.Write(f.Data)
	}
	fs.Unmount()
}

// pinProbe hashes every persistence call and every PM read it sees.
type pinProbe struct{ h hash.Hash }

func (p pinProbe) OnNT(off int64, data []byte, fn string) {
	fmt.Fprintf(p.h, "nt %d %s %d:", off, fn, len(data))
	p.h.Write(data)
}

func (p pinProbe) OnFlush(off int64, data []byte) {
	fmt.Fprintf(p.h, "flush %d %d:", off, len(data))
	p.h.Write(data)
}

func (p pinProbe) OnFence() { fmt.Fprint(p.h, "fence\n") }

func (p pinProbe) OnStore(off int64, data []byte) {
	fmt.Fprintf(p.h, "store %d %d:", off, len(data))
	p.h.Write(data)
}

func (p pinProbe) OnLoad(off int64, n int) { fmt.Fprintf(p.h, "load %d %d\n", off, n) }

// checkChurnReach asserts from the churn trace that it reaches the journal
// paths the digest is meant to pin: PMFS's tail word (block 1, offset 8)
// passes the end of its 1 KiB record ring, each WineFS per-CPU tail (blocks
// 1-4, offset 8) passes the end of its 2 KiB ring, and WineFS persists its
// reclaim epoch (superblock offset 16) at least once.
func checkChurnReach(t *testing.T, sys string, log *trace.Log) {
	t.Helper()
	tails := map[int64]uint64{}
	epochs := 0
	for _, e := range log.Entries() {
		if e.Kind != trace.KindStore || len(e.Data) != 8 {
			continue
		}
		v := binary.LittleEndian.Uint64(e.Data)
		switch {
		case e.Off%4096 == 8 && e.Off >= 4096 && e.Off < 5*4096:
			tails[e.Off/4096] = max(tails[e.Off/4096], v)
		case e.Off == 16:
			epochs++
		}
	}
	switch sys {
	case "pmfs":
		if tails[1] <= 1024 {
			t.Errorf("pmfs: churn never wraps the journal ring (highest tail %d)", tails[1])
		}
	case "winefs":
		for cpu := int64(1); cpu <= 4; cpu++ {
			if tails[cpu] <= 2048 {
				t.Errorf("winefs: churn never wraps journal %d (highest tail %d)", cpu-1, tails[cpu])
			}
		}
		if epochs == 0 {
			t.Error("winefs: churn never reclaims its journals")
		}
		t.Logf("winefs: churn made %d reclaim epochs", epochs)
	}
}
