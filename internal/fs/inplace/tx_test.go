package inplace_test

import (
	"testing"

	"chipmunk/internal/bugs"
	"chipmunk/internal/fs/inplace"
	"chipmunk/internal/fs/pmfs"
	"chipmunk/internal/fs/winefs"
	"chipmunk/internal/persist"
	"chipmunk/internal/pmem"
	"chipmunk/internal/vfs"
)

// TestInplaceTxAllocBudget pins what a create and an unlink, one journal
// transaction each, cost on a mounted PMFS and WineFS, and what the shared
// in-place write and fallocate of three blocks add between them. The
// budgets are the values measured on go1.24 linux/amd64 plus 10%, rounded
// down: one allocation on each, the new inode, against 9 when a
// transaction was an interface that kept its callers' inode and dirent
// images, so every image moved to the heap, and against 4 when the write
// and fallocate kept a slice of the blocks they took.
func TestInplaceTxAllocBudget(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	newPmfs := func(pm *persist.PM) vfs.FS { return pmfs.New(pm, bugs.None()) }
	newRelaxed := func(pm *persist.PM) vfs.FS {
		return winefs.New(pm, bugs.None(), winefs.WithMode(winefs.Relaxed))
	}
	data := make([]byte, 3*inplace.BlockSize)
	write := func(fs vfs.FS, fd vfs.FD) error {
		_, err := fs.Pwrite(fd, data, 0)
		return err
	}
	fallocate := func(fs vfs.FS, fd vfs.FD) error { return fs.Fallocate(fd, 0, int64(len(data))) }
	for _, c := range []struct {
		name   string
		budget float64
		newFS  func(*persist.PM) vfs.FS
		// fill, when set, runs on the new file before it is closed.
		fill func(vfs.FS, vfs.FD) error
	}{
		{"pmfs", 1, newPmfs, nil},
		{"winefs", 1, func(pm *persist.PM) vfs.FS { return winefs.New(pm, bugs.None()) }, nil},
		{"pmfs-write", 1, newPmfs, write},
		{"pmfs-fallocate", 1, newPmfs, fallocate},
		{"winefs-relaxed-write", 1, newRelaxed, write},
		{"winefs-relaxed-fallocate", 1, newRelaxed, fallocate},
	} {
		t.Run(c.name, func(t *testing.T) {
			dev := pmem.NewDevice(1 << 20)
			if err := c.newFS(persist.New(dev)).Mkfs(); err != nil {
				t.Fatal(err)
			}
			dev.Fence()
			fs := c.newFS(persist.New(pmem.FromImage(dev.CrashImage())))
			if err := fs.Mount(); err != nil {
				t.Fatal(err)
			}
			if err := fs.Mkdir("/d"); err != nil {
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(100, func() {
				fd, err := fs.Create("/d/f")
				if err != nil {
					t.Fatal(err)
				}
				if c.fill != nil {
					if err := c.fill(fs, fd); err != nil {
						t.Fatal(err)
					}
				}
				if err := fs.Close(fd); err != nil {
					t.Fatal(err)
				}
				if err := fs.Unlink("/d/f"); err != nil {
					t.Fatal(err)
				}
			})
			if got > c.budget {
				t.Errorf("%s allocates %.0f times, budget %.0f", c.name, got, c.budget)
			}
		})
	}
}
