package winefs

import (
	"fmt"
	"testing"

	"chipmunk/internal/bugs"
	"chipmunk/internal/fs/inplace"
	"chipmunk/internal/persist"
	"chipmunk/internal/pmem"
	"chipmunk/internal/vfs"
)

// TestReclaimEpochSoundness is a regression test for a recovery-ordering
// hazard: with per-CPU journals, reclaiming one journal while another still
// holds an OLDER transaction that touched the same words (the root
// directory inode, typically) must not let recovery roll the newer state
// back. The reclaim epoch guarantees this even when a crash persists only
// some of the head advances.
//
// The workload drives heavy shared-object (root dir) churn across all four
// journals, through multiple reclaim cycles, remounting after every op
// batch.
func TestReclaimEpochSoundness(t *testing.T) {
	dev := pmem.NewDevice(testDevSize)
	f := New(persist.New(dev), bugs.None())
	if err := f.Mkfs(); err != nil {
		t.Fatal(err)
	}
	expectEntries := map[string]bool{}
	for round := 0; round < 12; round++ {
		name := fmt.Sprintf("/r%02d", round)
		if _, err := f.Create(name); err != nil {
			t.Fatal(err)
		}
		expectEntries[name[1:]] = true
		if round%3 == 2 {
			victim := fmt.Sprintf("/r%02d", round-2)
			if err := f.Unlink(victim); err != nil {
				t.Fatal(err)
			}
			delete(expectEntries, victim[1:])
		}

		// Remount from the crash image after every round and compare the
		// directory exactly.
		f2 := New(persist.New(pmem.FromImage(dev.CrashImage())), bugs.None())
		if err := f2.Mount(); err != nil {
			t.Fatalf("round %d: mount: %v", round, err)
		}
		ents, err := f2.ReadDir("/")
		if err != nil {
			t.Fatalf("round %d: readdir: %v", round, err)
		}
		if len(ents) != len(expectEntries) {
			t.Fatalf("round %d: %d entries, want %d", round, len(ents), len(expectEntries))
		}
		for _, e := range ents {
			if !expectEntries[e.Name] {
				t.Fatalf("round %d: unexpected entry %s", round, e.Name)
			}
		}
		st, _ := f2.Stat("/")
		if st.Nlink != 2 {
			t.Fatalf("round %d: root nlink = %d", round, st.Nlink)
		}
	}
}

// TestReclaimPartialHeadAdvance simulates the exact hazard: persist the
// epoch and only SOME journal heads (as a crash mid-reclaim would), then
// mount. Recovery must skip every pre-epoch transaction rather than re-apply
// the surviving old windows.
func TestReclaimPartialHeadAdvance(t *testing.T) {
	dev := pmem.NewDevice(testDevSize)
	f := New(persist.New(dev), bugs.None())
	if err := f.Mkfs(); err != nil {
		t.Fatal(err)
	}
	// Two ops on different CPUs touching the root image.
	if _, err := f.Create("/a"); err != nil { // cpu 0, tx 1
		t.Fatal(err)
	}
	if err := f.Mkdir("/d"); err != nil { // cpu 1, tx 2 (root nlink -> 3)
		t.Fatal(err)
	}
	// Simulate a crash mid-reclaim: epoch persisted, only journal 1's head
	// advanced. Journal 0 still holds tx 1 with the OLD root image.
	f.PM.PersistStore64(sbReclaimOff, f.txid)
	f.PM.Fence()
	f.PM.PersistStore64(f.rings[1].Base+inplace.RingHeadOff, uint64(f.rings[1].Tail))
	f.PM.Fence()

	f2 := New(persist.New(pmem.FromImage(dev.CrashImage())), bugs.None())
	if err := f2.Mount(); err != nil {
		t.Fatal(err)
	}
	st, err := f2.Stat("/")
	if err != nil {
		t.Fatal(err)
	}
	if st.Nlink != 3 {
		t.Fatalf("root nlink = %d after partial reclaim, want 3 (tx rollback!)", st.Nlink)
	}
	if _, err := f2.Stat("/d"); err != nil {
		t.Fatalf("/d lost: %v", err)
	}
	if _, err := f2.Stat("/a"); err != nil {
		t.Fatalf("/a lost: %v", err)
	}
}

// TestMiniJournalRecoveryRoundTrip: a committed fast-publish transaction is
// redone at mount; a cleared one is ignored.
func TestMiniJournalRecoveryRoundTrip(t *testing.T) {
	dev := pmem.NewDevice(testDevSize)
	f := New(persist.New(dev), bugs.Of(bugs.WinefsStrictInPlace))
	if err := f.Mkfs(); err != nil {
		t.Fatal(err)
	}
	fd, _ := f.Create("/a")
	f.Pwrite(fd, make([]byte, 40), 0)
	f.Pwrite(fd, []byte{1, 2, 3}, 3) // not extending: normal path
	st, _ := f.Stat("/a")
	if st.Size != 40 {
		t.Fatalf("size = %d", st.Size)
	}
	// Extending unaligned write: fast publish.
	f.Pwrite(fd, make([]byte, 100), 41)
	f2 := New(persist.New(pmem.FromImage(dev.CrashImage())), bugs.Of(bugs.WinefsStrictInPlace))
	if err := f2.Mount(); err != nil {
		t.Fatal(err)
	}
	st2, err := f2.Stat("/a")
	if err != nil || st2.Size != 141 {
		t.Fatalf("post-crash size = %d, %v", st2.Size, err)
	}
	_ = vfs.TypeRegular
}
