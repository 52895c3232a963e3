package nova

import (
	"encoding/binary"
	"errors"
	"testing"

	"chipmunk/internal/bugs"
	"chipmunk/internal/persist"
	"chipmunk/internal/pmem"
	"chipmunk/internal/vfs"
)

// FS-level exercises of the injected-bug code paths. The end-to-end
// detection lives in internal/harness; these tests pin the LIVE behaviour:
// every buggy path must still produce a correct result when no crash
// happens (the bugs are crash-only).

func TestBuggyRenamePathsCorrectWithoutCrash(t *testing.T) {
	for _, set := range []bugs.Set{
		bugs.Of(bugs.NovaRenameInPlaceDelete),
		bugs.Of(bugs.NovaRenameOldSurvives),
		bugs.Of(bugs.NovaRenameInPlaceDelete, bugs.NovaRenameOldSurvives),
	} {
		f, dev := newNova(t, set)
		fd, _ := f.Create("/a")
		f.Pwrite(fd, []byte("content"), 0)
		f.Close(fd)
		f.Mkdir("/d")
		// Same-dir (bug 4 path) and cross-dir (bug 5 path).
		if err := f.Rename("/a", "/b"); err != nil {
			t.Fatal(err)
		}
		if err := f.Rename("/b", "/d/c"); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Stat("/a"); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("set %s: /a lives", set)
		}
		if _, err := f.Stat("/b"); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("set %s: /b lives", set)
		}
		if got := readFile(t, f, "/d/c"); string(got) != "content" {
			t.Fatalf("set %s: data = %q", set, got)
		}
		// Overwrite rename through the buggy paths (victim handling).
		fd2, _ := f.Create("/victim")
		f.Pwrite(fd2, []byte("old"), 0)
		f.Close(fd2)
		if err := f.Rename("/d/c", "/victim"); err != nil {
			t.Fatal(err)
		}
		if got := readFile(t, f, "/victim"); string(got) != "content" {
			t.Fatalf("set %s: overwrite = %q", set, got)
		}
		// And the full crash image (everything fenced) recovers correctly.
		f2 := New(persist.New(pmem.FromImage(dev.CrashImage())), set)
		if err := f2.Mount(); err != nil {
			t.Fatalf("set %s: mount: %v", set, err)
		}
		if got := readFile(t, f2, "/victim"); string(got) != "content" {
			t.Fatalf("set %s: post-crash data = %q", set, got)
		}
	}
}

func TestBuggyDirRenameCrossParents(t *testing.T) {
	// The buggy add-first path with a DIRECTORY exercises
	// renameFinishVictim's nlink bookkeeping.
	f, _ := newNova(t, bugs.Of(bugs.NovaRenameOldSurvives))
	f.Mkdir("/p1")
	f.Mkdir("/p1/sub")
	f.Mkdir("/p2")
	if err := f.Rename("/p1/sub", "/p2/sub"); err != nil {
		t.Fatal(err)
	}
	p1, _ := f.Stat("/p1")
	p2, _ := f.Stat("/p2")
	if p1.Nlink != 2 || p2.Nlink != 3 {
		t.Fatalf("nlinks = %d, %d", p1.Nlink, p2.Nlink)
	}
	// Dir-over-dir victim via the buggy path.
	f.Mkdir("/p1/sub2")
	if err := f.Rename("/p1/sub2", "/p2/sub"); err != nil {
		t.Fatal(err)
	}
	p2b, _ := f.Stat("/p2")
	if p2b.Nlink != 3 {
		t.Fatalf("victim-dir nlink = %d", p2b.Nlink)
	}
}

func TestFortisFreeLogRoundTrip(t *testing.T) {
	// The buggy Fortis truncate writes and clears the free-log; without a
	// crash the clear always lands and mounts stay clean.
	f, dev := newNova(t, bugs.Of(bugs.FortisDoubleFree), WithFortis())
	fd, _ := f.Create("/a")
	f.Pwrite(fd, make([]byte, 9000), 0)
	if err := f.Truncate("/a", 100); err != nil {
		t.Fatal(err)
	}
	f2 := New(persist.New(pmem.FromImage(dev.CrashImage())), bugs.Of(bugs.FortisDoubleFree), WithFortis())
	if err := f2.Mount(); err != nil {
		t.Fatalf("clean free-log should mount: %v", err)
	}
}

func TestDeferredCsumsFlushedAtOpEnd(t *testing.T) {
	// Bug 9's late checksums land by the end of the call: the full crash
	// image mounts with every entry checksum valid.
	f, dev := newNova(t, bugs.Of(bugs.FortisCsumNoFlush), WithFortis())
	f.Create("/a")
	if err := f.Unlink("/a"); err != nil {
		t.Fatal(err)
	}
	f2 := New(persist.New(pmem.FromImage(dev.CrashImage())), bugs.Of(bugs.FortisCsumNoFlush), WithFortis())
	if err := f2.Mount(); err != nil {
		t.Fatal(err)
	}
	ents, err := f2.ReadDir("/")
	if err != nil || len(ents) != 0 {
		t.Fatalf("dir after unlink: %v %v", ents, err)
	}
}

func TestSyncNoop(t *testing.T) {
	f, _ := newNova(t, bugs.None())
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalRecoveryRedoesCommitted(t *testing.T) {
	// Craft a committed-but-unapplied journal and verify recoverJournal
	// redoes it at mount.
	f, dev := newNova(t, bugs.None())
	f.Create("/a")
	// Manually stage a journal record changing /a's inode nlink to 5.
	d := f.Nodes[f.Nodes[RootIno].Dirents["a"].Ino]
	img := f.inodeImage(d)
	binary.LittleEndian.PutUint64(img[inoNlinkOff:], 5)
	base := int64(journalPage) * PageSize
	off := base + jRecsOff
	f.pm.Store64(off, uint64(inodeOff(d.Ino)))
	f.pm.Store64(off+8, uint64(len(img)))
	f.pm.Store(off+16, img[:])
	f.pm.Store64(base+jCountOff, 1)
	f.pm.Flush(base, jRecsOff+jRecSize)
	f.pm.Fence()
	f.pm.PersistStore64(base+jStateOff, 1) // committed, never applied
	f.pm.Fence()

	f2 := New(persist.New(pmem.FromImage(dev.CrashImage())), bugs.None())
	if err := f2.Mount(); err != nil {
		t.Fatal(err)
	}
	st, err := f2.Stat("/a")
	if err != nil || st.Nlink != 5 {
		t.Fatalf("journal redo missing: %+v %v", st, err)
	}
}

func TestAllocInUse(t *testing.T) {
	f, _ := newNova(t, bugs.None())
	p, err := f.alloc.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !f.alloc.Used(p) {
		t.Fatal("allocated page not in use")
	}
	f.alloc.Release(p)
	if f.alloc.Used(p) {
		t.Fatal("released page still in use")
	}
	if f.alloc.Used(0) {
		t.Fatal("page outside pool in use")
	}
}
