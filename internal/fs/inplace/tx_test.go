package inplace_test

import (
	"testing"

	"chipmunk/internal/bugs"
	"chipmunk/internal/fs/pmfs"
	"chipmunk/internal/fs/winefs"
	"chipmunk/internal/persist"
	"chipmunk/internal/pmem"
	"chipmunk/internal/vfs"
)

// TestInplaceTxAllocBudget pins what a create and an unlink, one journal
// transaction each, cost on a mounted PMFS and WineFS. The budgets are the
// values measured on go1.24 linux/amd64 plus 10%, rounded down: one
// allocation on each, the new inode, against 9 when a transaction was an
// interface that kept its callers' inode and dirent images, so every image
// moved to the heap.
func TestInplaceTxAllocBudget(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	for _, c := range []struct {
		name   string
		budget float64
		newFS  func(*persist.PM) vfs.FS
	}{
		{"pmfs", 1, func(pm *persist.PM) vfs.FS { return pmfs.New(pm, bugs.None()) }},
		{"winefs", 1, func(pm *persist.PM) vfs.FS { return winefs.New(pm, bugs.None()) }},
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
				if err := fs.Close(fd); err != nil {
					t.Fatal(err)
				}
				if err := fs.Unlink("/d/f"); err != nil {
					t.Fatal(err)
				}
			})
			if got > c.budget {
				t.Errorf("a create and an unlink allocate %.0f times, budget %.0f", got, c.budget)
			}
		})
	}
}
