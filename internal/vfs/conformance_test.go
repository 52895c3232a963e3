package vfs_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/fs/extdax"
	"chipmunk/internal/fs/memfs"
	"chipmunk/internal/fs/nova"
	"chipmunk/internal/fs/pmfs"
	"chipmunk/internal/fs/splitfs"
	"chipmunk/internal/fs/winefs"
	"chipmunk/internal/persist"
	"chipmunk/internal/pmem"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

// devSize is the engine's default device size; SplitFS needs at least this
// much for its three regions.
const devSize = 1 << 20

// system is one guest model, built without injected bugs. Weak systems
// only promise durability after fsync or sync.
type system struct {
	name string
	weak bool
	mk   func(pm *persist.PM) vfs.FS
}

func systems() []system {
	none := bugs.None()
	return []system{
		{name: "nova", mk: func(pm *persist.PM) vfs.FS { return nova.New(pm, none) }},
		{name: "nova-fortis", mk: func(pm *persist.PM) vfs.FS { return nova.New(pm, none, nova.WithFortis()) }},
		{name: "pmfs", mk: func(pm *persist.PM) vfs.FS { return pmfs.New(pm, none) }},
		{name: "winefs", mk: func(pm *persist.PM) vfs.FS { return winefs.New(pm, none) }},
		{name: "splitfs", mk: func(pm *persist.PM) vfs.FS { return splitfs.New(pm, none) }},
		{name: "ext4-dax", weak: true, mk: func(pm *persist.PM) vfs.FS { return extdax.New(pm, extdax.Ext4) }},
		{name: "xfs-dax", weak: true, mk: func(pm *persist.PM) vfs.FS { return extdax.New(pm, extdax.XFS) }},
	}
}

// formatted builds s on a fresh device and formats it.
func (s system) formatted(t *testing.T) (vfs.FS, *pmem.Device) {
	t.Helper()
	dev := pmem.NewDevice(devSize)
	fs := s.mk(persist.New(dev))
	if err := fs.Mkfs(); err != nil {
		t.Fatalf("%s: mkfs: %v", s.name, err)
	}
	return fs, dev
}

var errnos = []error{
	vfs.ErrNotExist, vfs.ErrExist, vfs.ErrNotDir, vfs.ErrIsDir, vfs.ErrNotEmpty,
	vfs.ErrInvalid, vfs.ErrNoSpace, vfs.ErrBadFD, vfs.ErrNameTooLong, vfs.ErrBusy,
	vfs.ErrCorrupt, vfs.ErrIO,
}

// errClass names the errno an op failed with, so models that wrap errors
// differently still compare equal.
func errClass(err error) string {
	if err == nil {
		return "ok"
	}
	for _, e := range errnos {
		if errors.Is(err, e) {
			return e.Error()
		}
	}
	return "unclassified: " + err.Error()
}

// step is what one op left behind: its errno class and the whole observable
// state after it.
type step struct {
	class string
	state vfs.State
	err   error // capture failure
}

// trace runs w on fs, capturing after every op.
func trace(fs vfs.FS, w workload.Workload) []step {
	out := make([]step, 0, len(w.Ops))
	workload.Run(fs, w, workload.Hooks{After: func(_ int, _ workload.Op, err error) {
		st, cerr := vfs.Capture(fs)
		out = append(out, step{class: errClass(err), state: st, err: cerr})
	}})
	return out
}

// conform runs w on memfs and on s, and reports the first op after which
// they disagree — errno class, Stat type/size/nlink, sorted directory
// entries, file contents, hard-link structure — or, once the workload has
// run, the first difference a remount shows. Weak systems sync before the
// remount.
func conform(t *testing.T, s system, w workload.Workload) string {
	ref := memfs.New()
	if err := ref.Mkfs(); err != nil {
		t.Fatal(err)
	}
	want := trace(ref, w)
	fs, dev := s.formatted(t)
	got := trace(fs, w)
	for i := range want {
		g, r := got[i], want[i]
		if g.err != nil {
			return fmt.Sprintf("op %d %v: capture: %v", i, w.Ops[i], g.err)
		}
		if g.class != r.class {
			return fmt.Sprintf("op %d %v: errno %q, memfs %q", i, w.Ops[i], g.class, r.class)
		}
		if d := vfs.Diff(g.state, r.state); d != "" {
			return fmt.Sprintf("op %d %v: %s", i, w.Ops[i], d)
		}
	}
	if s.weak {
		if err := fs.Sync(); err != nil {
			return fmt.Sprintf("sync: %v", err)
		}
	}
	if c, ok := fs.(vfs.FDCounter); ok && c.OpenFDs() != 0 {
		return fmt.Sprintf("%d descriptors open after the workload closed all of its own", c.OpenFDs())
	}
	if err := fs.Unmount(); err != nil {
		return fmt.Sprintf("unmount: %v", err)
	}
	again := s.mk(persist.New(dev))
	if err := again.Mount(); err != nil {
		return fmt.Sprintf("remount: %v", err)
	}
	st, err := vfs.Capture(again)
	if err != nil {
		return fmt.Sprintf("remount capture: %v", err)
	}
	if len(want) > 0 {
		if d := vfs.Diff(st, want[len(want)-1].state); d != "" {
			return "after remount: " + d
		}
	}
	return ""
}

// fuzzStream is a fixed-seed stream of random workloads in the fuzzer's
// style: two descriptor slots, aligned and unaligned offsets and sizes, and
// a small name pool, so writes go through a second descriptor and unlink,
// rename and truncate often hit a file that a descriptor holds open. Paths
// nest a level deep, pwrite, truncate and fallocate reach well past EOF,
// and rename and link land on directories as often as on files.
func fuzzStream(seed int64, n int) []workload.Workload {
	rng := rand.New(rand.NewSource(seed))
	paths := []string{"/f0", "/f1", "/f2", "/d0", "/d1", "/d0/f3", "/d0/d2", "/d1/f4"}
	offs := []int64{0, 1, 3, 8, 64, 100, 1024, 2048, 4095, 4096, 4097, 5000}
	sizes := []int64{1, 5, 8, 13, 100, 512, 1000, 1024, 4096, 5000}
	path := func() string { return paths[rng.Intn(len(paths))] }
	pick := func(v []int64) int64 { return v[rng.Intn(len(v))] }
	out := make([]workload.Workload, n)
	for i := range out {
		ops := []workload.Op{
			{Kind: workload.OpCreat, Path: "/f0", FDSlot: 0},
			{Kind: workload.OpMkdir, Path: "/d0"},
			{Kind: workload.OpPwrite, FDSlot: 0, Size: int64(rng.Intn(2000) + 200), Seed: rng.Uint32()},
			{Kind: workload.OpOpen, Path: "/f0", FDSlot: 1},
		}
		for j := rng.Intn(6) + 3; j > 0; j-- {
			slot := rng.Intn(3) - 1
			var op workload.Op
			switch rng.Intn(14) {
			case 0:
				op = workload.Op{Kind: workload.OpCreat, Path: path(), FDSlot: slot}
			case 1:
				op = workload.Op{Kind: workload.OpMkdir, Path: path()}
			case 2:
				op = workload.Op{Kind: workload.OpOpen, Path: path(), FDSlot: rng.Intn(2)}
			case 3:
				op = workload.Op{Kind: workload.OpClose, FDSlot: rng.Intn(2)}
			case 4:
				op = workload.Op{Kind: workload.OpWrite, Path: path(), FDSlot: slot, Size: pick(sizes), Seed: rng.Uint32()}
			case 5:
				op = workload.Op{Kind: workload.OpPwrite, Path: path(), FDSlot: slot, Off: pick(offs), Size: pick(sizes), Seed: rng.Uint32()}
			case 6:
				op = workload.Op{Kind: workload.OpLink, Path: path(), Path2: path()}
			case 7:
				op = workload.Op{Kind: workload.OpUnlink, Path: path()}
			case 8:
				op = workload.Op{Kind: workload.OpRename, Path: path(), Path2: path()}
			case 9:
				op = workload.Op{Kind: workload.OpTruncate, Path: path(), Size: pick(offs)}
			case 10:
				op = workload.Op{Kind: workload.OpRmdir, Path: path()}
			case 11:
				op = workload.Op{Kind: workload.OpFalloc, Path: path(), FDSlot: slot, Off: pick(offs), Size: pick(sizes)}
			case 12:
				op = workload.Op{Kind: workload.OpSync}
			default:
				op = workload.Op{Kind: workload.OpFsync, Path: path(), FDSlot: slot}
			}
			ops = append(ops, op)
		}
		out[i] = workload.Workload{Name: fmt.Sprintf("fuzz-%03d", i), Ops: ops}
	}
	return out
}

// TestConformanceWithoutCrash is the no-crash differential every verdict
// rests on: each of the seven systems, run without a crash, must behave
// exactly like memfs after every op of seq-1, all of seq-2, seq-1-dax (the
// DAX systems, which alone support xattrs) and a fixed-seed fuzz stream.
// -short keeps every eighth seq-2 workload.
func TestConformanceWithoutCrash(t *testing.T) {
	seq2 := ace.Seq2()
	if testing.Short() {
		var some []workload.Workload
		for i := 0; i < len(seq2); i += 8 {
			some = append(some, seq2[i])
		}
		seq2 = some
	}
	inputs := []struct {
		name     string
		ws       []workload.Workload
		weakOnly bool
	}{
		{"seq1", ace.Seq1(), false},
		{"seq2", seq2, false},
		{"seq1dax", ace.Seq1Dax(), true},
		{"fuzz", fuzzStream(1, 300), false},
	}
	for _, s := range systems() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			for _, in := range inputs {
				if in.weakOnly && !s.weak {
					continue
				}
				failed := 0
				for _, w := range in.ws {
					if d := conform(t, s, w); d != "" {
						t.Errorf("%s %s: %s\n  workload: %v", in.name, w.Name, d, w)
						if failed++; failed == 5 {
							t.Errorf("%s: stopping after %d divergent workloads", in.name, failed)
							break
						}
					}
				}
			}
		})
	}
}
