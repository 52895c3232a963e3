package vfs_test

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"slices"
	"testing"

	"chipmunk/internal/ace"
	"chipmunk/internal/fs/memfs"
	"chipmunk/internal/persist"
	"chipmunk/internal/pmem"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

// forkDevSize is the fork tests' device: a quarter of the engine's, so
// the tests copy and hash less, and the DAX journals compact sooner.
const forkDevSize = 256 << 10

// forkRig is a guest on a device whose two images the test reads directly.
type forkRig struct {
	vol, pers []byte
	dev       *pmem.Device
	fs        vfs.FS
}

func newForkRig(t *testing.T, s system) *forkRig {
	t.Helper()
	r := &forkRig{vol: make([]byte, forkDevSize), pers: make([]byte, forkDevSize)}
	r.dev = pmem.WrapImages(r.vol, r.pers)
	r.fs = s.mk(persist.New(r.dev))
	if err := r.fs.Mkfs(); err != nil {
		t.Fatalf("%s: mkfs: %v", s.name, err)
	}
	return r
}

var imageSeed = maphash.MakeSeed()

// digest identifies the rig's volatile and persistent images.
func (r *forkRig) digest() [2]uint64 {
	return [2]uint64{maphash.Bytes(imageSeed, r.vol), maphash.Bytes(imageSeed, r.pers)}
}

// fork copies the rig at an op boundary: the device's images, which hold
// everything once nothing is in flight, and the guest's DRAM state
// through vfs.Forker.
func (r *forkRig) fork(t *testing.T) *forkRig {
	t.Helper()
	if n := r.dev.InFlightCount(); n != 0 {
		t.Fatalf("fork with %d writes in flight", n)
	}
	c := &forkRig{vol: bytes.Clone(r.vol), pers: bytes.Clone(r.pers)}
	c.dev = pmem.WrapImages(c.vol, c.pers)
	if c.fs = r.fs.(vfs.Forker).Fork(persist.New(c.dev)); c.fs == nil {
		t.Fatal("Fork with no descriptor open returned nil")
	}
	return c
}

// recovered is the digest of the rig's persistent image once a mount on a
// copy of it has recovered it.
func (r *forkRig) recovered(t *testing.T, s system) uint64 {
	t.Helper()
	dev := pmem.FromImage(r.pers)
	if err := s.mk(persist.New(dev)).Mount(); err != nil {
		t.Fatalf("mount: %v", err)
	}
	return maphash.Bytes(imageSeed, dev.CrashImage())
}

// forkable reports whether fs has no descriptor open: an op boundary with
// no FD slot open, where a run may fork.
func forkable(fs vfs.FS) bool { return fs.(vfs.FDCounter).OpenFDs() == 0 }

// forkers are the systems that implement vfs.Forker.
func forkers() []system {
	var out []system
	for _, s := range systems() {
		if _, ok := s.mk(persist.New(pmem.NewDevice(devSize))).(vfs.Forker); ok {
			out = append(out, s)
		}
	}
	return out
}

// forkedRuns checks every fork of a run of w on s against the unforked run.
// It runs w once unforked, recording its op results and its images after
// every op, and once more, copying the guest into a fork point at every op
// boundary with no descriptor open. With mutate, the parent then runs on
// and writes into every file it holds. From each point, a fork of the
// point and then the point itself run the rest of w: their results, their
// images after every op, and those images after recovery must be the
// unforked run's. It returns the first difference, or "".
func forkedRuns(t *testing.T, s system, w workload.Workload, mutate bool) string {
	ref := newForkRig(t, s)
	var want [][2]uint64
	results := workload.Run(ref.fs, w, workload.Hooks{After: func(int, workload.Op, error) {
		want = append(want, ref.digest())
	}})
	recovered := ref.recovered(t, s)

	parent := newForkRig(t, s)
	type point struct {
		depth int
		r     *forkRig
	}
	var points []point
	take := func(k int) {
		if forkable(parent.fs) {
			points = append(points, point{k, parent.fork(t)})
		}
	}
	take(0)
	workload.Run(parent.fs, w, workload.Hooks{After: func(i int, _ workload.Op, _ error) { take(i + 1) }})
	if mutate {
		scribble(parent.fs)
	}

	for _, pt := range points {
		for _, r := range []*forkRig{pt.r.fork(t), pt.r} {
			var diff string
			got := workload.Resume(r.fs, w, slices.Clone(results[:pt.depth]), workload.Hooks{
				After: func(i int, _ workload.Op, _ error) {
					if d := r.digest(); diff == "" && d != want[i] {
						diff = fmt.Sprintf("forked after op %d: images differ after op %d", pt.depth, i)
					}
				},
			})
			if diff != "" {
				return diff
			}
			for i := range got {
				if got[i].Err != results[i].Err {
					return fmt.Sprintf("forked after op %d: op %d returned %v, unforked %v", pt.depth, i, got[i].Err, results[i].Err)
				}
			}
			if r.recovered(t, s) != recovered {
				return fmt.Sprintf("forked after op %d: images after recovery differ", pt.depth)
			}
		}
	}
	return ""
}

// scribble mutates fs everywhere a fork could share state with it: it
// rewrites, extends, truncates and tags every file, adds an entry to every
// directory, and commits.
func scribble(fs vfs.FS) {
	st, err := vfs.Capture(fs)
	if err != nil {
		return
	}
	for path, f := range st {
		if f.Type == vfs.TypeDir {
			fs.Mkdir(vfs.Join(path, "scribble"))
			continue
		}
		if fd, err := fs.Open(path); err == nil {
			fs.Pwrite(fd, bytes.Repeat([]byte{0xAB}, 64), 0)
			fs.Pwrite(fd, []byte{0xCD}, f.Size+100)
			fs.Close(fd)
		}
		fs.Truncate(path, 1)
		if x, ok := fs.(vfs.XattrFS); ok {
			x.Setxattr(path, "user.scribble", []byte("x"))
		}
	}
	fs.Sync()
}

// TestPrefixForkIsolation: a fork shares nothing with its parent. Over
// seq-1-dax and the fuzz stream, every guest that forks is copied at every
// op boundary with no descriptor open, the parent then runs on and writes
// into every file, and each copy — and a copy of the copy, the way a fork
// chain restores a point again and again — must still run to the images
// and results of an unforked run. The oracle's memfs is held to the same
// with Clone, on its captures after every op.
func TestPrefixForkIsolation(t *testing.T) {
	ws := append(ace.Seq1Dax(), fuzzStream(3, 60)...)
	for _, s := range forkers() {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			for _, w := range ws {
				if d := forkedRuns(t, s, w, true); d != "" {
					t.Errorf("%s: %s", w.Name, d)
				}
			}
		})
	}
	t.Run("memfs", func(t *testing.T) {
		t.Parallel()
		for _, w := range ws {
			if d := clonedRuns(w); d != "" {
				t.Errorf("%s: %s", w.Name, d)
			}
		}
	})
}

// clonedRuns is forkedRuns for the oracle: memfs clones against an
// uncloned run, compared on the whole observable state after every op.
func clonedRuns(w workload.Workload) string {
	mk := func() *memfs.FS {
		fs := memfs.New()
		fs.Mkfs()
		return fs
	}
	var want []vfs.State
	ref := mk()
	results := workload.Run(ref, w, workload.Hooks{After: func(int, workload.Op, error) {
		st, _ := vfs.Capture(ref)
		want = append(want, st)
	}})

	parent := mk()
	type point struct {
		depth int
		fs    *memfs.FS
	}
	var points []point
	take := func(k int) {
		if forkable(parent) {
			points = append(points, point{k, parent.Clone()})
		}
	}
	take(0)
	workload.Run(parent, w, workload.Hooks{After: func(i int, _ workload.Op, _ error) { take(i + 1) }})
	scribble(parent)

	for _, pt := range points {
		for _, fs := range []*memfs.FS{pt.fs.Clone(), pt.fs} {
			var diff string
			workload.Resume(fs, w, slices.Clone(results[:pt.depth]), workload.Hooks{
				After: func(i int, _ workload.Op, _ error) {
					st, err := vfs.Capture(fs)
					if d := vfs.Diff(st, want[i]); diff == "" && (err != nil || d != "") {
						diff = fmt.Sprintf("cloned after op %d: op %d: %v %s", pt.depth, i, err, d)
					}
				},
			})
			if diff != "" {
				return diff
			}
		}
	}
	return ""
}
