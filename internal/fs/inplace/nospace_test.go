package inplace_test

import (
	"bytes"
	"testing"

	"chipmunk/internal/bugs"
	"chipmunk/internal/fs/inplace"
	"chipmunk/internal/fs/pmfs"
	"chipmunk/internal/fs/winefs"
	"chipmunk/internal/persist"
	"chipmunk/internal/pmem"
	"chipmunk/internal/vfs"
)

// shared returns the in-place layer fs embeds.
func shared(fs vfs.FS) *inplace.FS {
	switch f := fs.(type) {
	case *pmfs.FS:
		return &f.FS
	case *winefs.FS:
		return &f.FS
	}
	panic("not an in-place file system")
}

// TestNoSpaceRollsBackAllocation runs each system's block pool dry in one
// call: a write or fallocate of more blocks than are free fails with
// ErrNoSpace and gives back every block it took, in the pool and in the
// inode. Another file written after it reads back its own bytes, not the
// failed file's: a pointer left to a released block makes the two share
// it.
func TestNoSpaceRollsBackAllocation(t *testing.T) {
	const blocks = 8 // more than the pool has free once the root has its directory block
	for _, sys := range []struct {
		name string
		// poolStart is the first pool block: the smallest device a system
		// formats has 8 pool blocks.
		poolStart int64
		newFS     func(*persist.PM) vfs.FS
	}{
		{"pmfs", 11, func(pm *persist.PM) vfs.FS { return pmfs.New(pm, bugs.None()) }},
		{"winefs", 13, func(pm *persist.PM) vfs.FS { return winefs.New(pm, bugs.None()) }},
		{"winefs-relaxed", 13, func(pm *persist.PM) vfs.FS {
			return winefs.New(pm, bugs.None(), winefs.WithMode(winefs.Relaxed))
		}},
	} {
		for _, op := range []struct {
			name string
			run  func(fs vfs.FS, fd vfs.FD) error
		}{
			{"write", func(fs vfs.FS, fd vfs.FD) error {
				_, err := fs.Pwrite(fd, make([]byte, blocks*inplace.BlockSize), 0)
				return err
			}},
			{"fallocate", func(fs vfs.FS, fd vfs.FD) error {
				return fs.Fallocate(fd, 0, blocks*inplace.BlockSize)
			}},
		} {
			t.Run(sys.name+"/"+op.name, func(t *testing.T) {
				fs := sys.newFS(persist.New(pmem.NewDevice((sys.poolStart + 8) * inplace.BlockSize)))
				if err := fs.Mkfs(); err != nil {
					t.Fatal(err)
				}
				in := shared(fs)
				a, err := fs.Create("/a")
				if err != nil {
					t.Fatal(err)
				}
				free := in.Pool.Free()
				if free >= blocks {
					t.Fatalf("%d blocks free, want fewer than %d", free, blocks)
				}
				if err := op.run(fs, a); err != vfs.ErrNoSpace {
					t.Fatalf("%s of %d blocks with %d free: %v, want ErrNoSpace", op.name, blocks, free, err)
				}
				if got := in.Pool.Free(); got != free {
					t.Errorf("%d blocks free after the failed %s, want %d", got, op.name, free)
				}
				for _, n := range in.Nodes {
					for i, b := range n.Blocks {
						if b != 0 && !in.Pool.Used(b) {
							t.Errorf("inode %d block[%d] names free block %d", n.Ino, i, b)
						}
					}
				}

				b, err := fs.Create("/b")
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range []struct {
					fd   vfs.FD
					fill byte
				}{{b, 0xBB}, {a, 0xAA}} {
					if _, err := fs.Pwrite(w.fd, bytes.Repeat([]byte{w.fill}, inplace.BlockSize), 0); err != nil {
						t.Fatal(err)
					}
				}
				got := make([]byte, inplace.BlockSize)
				if _, err := fs.Pread(b, got, 0); err != nil {
					t.Fatal(err)
				}
				for i, c := range got {
					if c != 0xBB {
						t.Errorf("/b reads %#x at byte %d, want 0xbb: it shares a block with /a", c, i)
						break
					}
				}
			})
		}
	}
}
