package winefs

import (
	"chipmunk/internal/fs/inplace"
	"encoding/binary"

	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"chipmunk/internal/bugs"
	"chipmunk/internal/fs/memfs"
	"chipmunk/internal/persist"
	"chipmunk/internal/pmem"
	"chipmunk/internal/vfs"
)

const testDevSize = 4 << 20

func newWinefs(t *testing.T, set bugs.Set, opts ...Option) (*FS, *pmem.Device) {
	t.Helper()
	dev := pmem.NewDevice(testDevSize)
	f := New(persist.New(dev), set, opts...)
	if err := f.Mkfs(); err != nil {
		t.Fatal(err)
	}
	return f, dev
}

func readFile(t *testing.T, f vfs.FS, path string) []byte {
	t.Helper()
	st, err := f.Stat(path)
	if err != nil {
		t.Fatalf("stat %s: %v", path, err)
	}
	fd, err := f.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close(fd)
	buf := make([]byte, st.Size)
	n, err := f.Pread(fd, buf, 0)
	if err != nil {
		t.Fatalf("pread %s: %v", path, err)
	}
	return buf[:n]
}

func TestBasicLifecycle(t *testing.T) {
	for _, mode := range []Mode{Strict, Relaxed} {
		f, _ := newWinefs(t, bugs.None(), WithMode(mode))
		fd, err := f.Create("/a")
		if err != nil {
			t.Fatal(err)
		}
		f.Pwrite(fd, []byte("wine data"), 0)
		f.Close(fd)
		if got := readFile(t, f, "/a"); string(got) != "wine data" {
			t.Fatalf("mode %d: read = %q", mode, got)
		}
		f.Mkdir("/d")
		f.Rename("/a", "/d/b")
		f.Link("/d/b", "/l")
		st, _ := f.Stat("/l")
		if st.Nlink != 2 {
			t.Fatalf("nlink = %d", st.Nlink)
		}
		f.Unlink("/l")
		f.Unlink("/d/b")
		f.Rmdir("/d")
		ents, _ := f.ReadDir("/")
		if len(ents) != 0 {
			t.Fatalf("leftovers: %v", ents)
		}
	}
}

func TestStrictOverwriteCoW(t *testing.T) {
	f, _ := newWinefs(t, bugs.None())
	fd, _ := f.Create("/a")
	f.Pwrite(fd, bytes.Repeat([]byte{1}, 5000), 0)
	f.Pwrite(fd, []byte{9, 9, 9}, 4094) // cross-block overwrite
	got := readFile(t, f, "/a")
	if got[4093] != 1 || got[4094] != 9 || got[4096] != 9 || got[4097] != 1 {
		t.Fatalf("overwrite wrong around boundary: %v", got[4090:4100])
	}
}

func TestCrashImageSynchronyAcrossCPUJournals(t *testing.T) {
	// Operations land on different per-CPU journals; everything must be
	// durable at each syscall return.
	f, dev := newWinefs(t, bugs.None())
	for i, name := range []string{"/a", "/b", "/c", "/d", "/e", "/f"} {
		fd, err := f.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		f.Pwrite(fd, []byte{byte(i + 1)}, 0)
		f.Close(fd)
	}
	img := pmem.FromImage(dev.CrashImage())
	f2 := New(persist.New(img), bugs.None())
	if err := f2.Mount(); err != nil {
		t.Fatalf("mount: %v", err)
	}
	ents, _ := f2.ReadDir("/")
	if len(ents) != 6 {
		t.Fatalf("entries = %d", len(ents))
	}
}

func TestRemountAfterJournalWrap(t *testing.T) {
	f, dev := newWinefs(t, bugs.None())
	for round := 0; round < 10; round++ {
		for _, n := range []string{"/x", "/y", "/z"} {
			if _, err := f.Create(n); err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range []string{"/x", "/y", "/z"} {
			if err := f.Unlink(n); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.Create("/keep")
	f.Unmount()
	f2 := New(persist.New(dev), bugs.None())
	if err := f2.Mount(); err != nil {
		t.Fatalf("remount: %v", err)
	}
	if _, err := f2.Stat("/keep"); err != nil {
		t.Fatal(err)
	}
}

func TestAlignedAllocatorSeparatesKinds(t *testing.T) {
	f, _ := newWinefs(t, bugs.None())
	data, err := f.Pool.Lowest()
	if err != nil {
		t.Fatal(err)
	}
	meta, err := f.Pool.Highest()
	if err != nil {
		t.Fatal(err)
	}
	if data >= meta {
		t.Fatalf("data block %d should be below metadata block %d", data, meta)
	}
	before := alignedFreeExtents(f)
	// Metadata churn must not erode aligned extents faster than data.
	for i := 0; i < 8; i++ {
		f.Pool.Highest()
	}
	after := alignedFreeExtents(f)
	if before-after > 1 {
		t.Fatalf("metadata allocations fragmented %d aligned extents", before-after)
	}
}

// alignedFreeExtents counts the fully free huge-page extents (16 blocks,
// 16-block aligned) in f's pool: what WineFS's allocator preserves by
// serving metadata from the top of the pool and data from the bottom.
func alignedFreeExtents(f *FS) int {
	const hugeRun = 16
	n := 0
	for b := uint64(poolStart+hugeRun-1) / hugeRun * hugeRun; b+hugeRun <= f.totalBlocks; b += hugeRun {
		free := true
		for i := uint64(0); i < hugeRun; i++ {
			free = free && !f.Pool.Used(b+i)
		}
		if free {
			n++
		}
	}
	return n
}

func TestBug19SingleJournalRecovery(t *testing.T) {
	// Build a crash image holding a committed-but-unapplied transaction in
	// a non-zero CPU journal: run ops until the op counter sits on CPU 1+,
	// then snapshot between the tail publish and the in-place apply. We
	// approximate by replaying the recorded trace up to just after a tail
	// publish — simpler here: write the tx and crash before apply by
	// copying the device mid-commit is engine work; at the FS level we
	// verify the weaker contract that buggy recovery consults only journal
	// 0 while fixed recovery consults all.
	f, dev := newWinefs(t, bugs.None())
	f.Create("/a") // cpu 0
	f.Create("/b") // cpu 1
	// Manually append a committed tx to journal 2 that creates a dirent for
	// a valid inode, simulating a crash before its in-place apply.
	d := &inplace.Inode{Inode: vfs.Inode{Ino: 9, Type: vfs.TypeRegular, Nlink: 1}}
	f.Slots.Claim(9)
	tx := f.Begin()
	f.SetInode(tx, d)
	slotOff := int64(0)
	for _, b := range f.Nodes[inplace.RootIno].Blocks {
		if b != 0 {
			slotOff = inplace.BlockOff(b) + 2*inplace.DirentSize
			break
		}
	}
	ghost := make([]byte, inplace.DirentSize) // {ino u64, name length u8, name}
	binary.LittleEndian.PutUint64(ghost, 9)
	ghost[8] = byte(len("ghost"))
	copy(ghost[9:], "ghost")
	tx.Set(slotOff, ghost)
	// Commit writes + tail publish, but skip the in-place apply: emulate by
	// committing into the journal only.
	pos := f.appendTx(&f.rings[2], &tx.Redo)
	f.PM.Fence()
	f.PM.PersistStore64(f.rings[2].Base+inplace.RingTailOff, uint64(pos))
	f.PM.Fence()

	img := dev.CrashImage()

	// Fixed recovery replays the journal-2 tx: /ghost exists and is readable.
	fixed := New(persist.New(pmem.FromImage(img)), bugs.None())
	if err := fixed.Mount(); err != nil {
		t.Fatalf("fixed mount: %v", err)
	}
	if _, err := fixed.Stat("/ghost"); err != nil {
		t.Fatalf("fixed recovery lost journal-2 tx: %v", err)
	}

	// Buggy recovery consults only journal 0: the tx is lost.
	buggy := New(persist.New(pmem.FromImage(img)), bugs.Of(bugs.WinefsJournalIndex))
	if err := buggy.Mount(); err != nil {
		t.Fatalf("buggy mount: %v", err)
	}
	if _, err := buggy.Stat("/ghost"); err == nil {
		t.Fatal("buggy recovery should have lost the journal-2 tx")
	}
}

func TestBug20FastPublishPath(t *testing.T) {
	f, dev := newWinefs(t, bugs.Of(bugs.WinefsStrictInPlace))
	fd, _ := f.Create("/a")
	f.Pwrite(fd, bytes.Repeat([]byte{0xAA}, 40), 0)
	// Unaligned EXTENDING write hits the mini-journal fast path.
	f.Pwrite(fd, bytes.Repeat([]byte{0xBB}, 100), 3)
	got := readFile(t, f, "/a")
	if len(got) != 103 || got[3] != 0xBB || got[102] != 0xBB || got[2] != 0xAA {
		t.Fatalf("fast-path contents wrong: len=%d head=%v", len(got), got[0:8])
	}
	// The live path must also survive a clean crash + remount.
	f2 := New(persist.New(pmem.FromImage(dev.CrashImage())), bugs.Of(bugs.WinefsStrictInPlace))
	if err := f2.Mount(); err != nil {
		t.Fatalf("mount: %v", err)
	}
	if got := readFile(t, f2, "/a"); len(got) != 103 || got[3] != 0xBB {
		t.Fatalf("post-crash contents wrong: len=%d", len(got))
	}
}

func TestPropertyDifferentialVsMemfs(t *testing.T) {
	paths := []string{"/f0", "/f1", "/d0/f2", "/d0", "/d1"}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dev := pmem.NewDevice(testDevSize)
		wf := New(persist.New(dev), bugs.None())
		if err := wf.Mkfs(); err != nil {
			t.Fatal(err)
		}
		ref := memfs.New()
		ref.Mkfs()
		for i := 0; i < 30; i++ {
			kind := rng.Intn(9)
			a := paths[rng.Intn(len(paths))]
			b := paths[rng.Intn(len(paths))]
			off := rng.Int63n(5000)
			n := rng.Intn(3000) + 1
			s2 := rng.Int63()
			e1 := applyOp(wf, kind, a, b, off, n, s2)
			e2 := applyOp(ref, kind, a, b, off, n, s2)
			if (e1 == nil) != (e2 == nil) {
				t.Logf("seed %d op %d(%s,%s): winefs=%v ref=%v", seed, kind, a, b, e1, e2)
				return false
			}
		}
		s1, err1 := vfs.Capture(wf)
		s2c, err2 := vfs.Capture(ref)
		if err1 != nil || err2 != nil {
			t.Logf("capture: %v %v", err1, err2)
			return false
		}
		if d := vfs.Diff(s1, s2c); d != "" {
			t.Logf("seed %d diff: %s", seed, d)
			return false
		}
		wf.Unmount()
		wf2 := New(persist.New(dev), bugs.None())
		if err := wf2.Mount(); err != nil {
			t.Logf("seed %d remount: %v", seed, err)
			return false
		}
		s3, err := vfs.Capture(wf2)
		if err != nil {
			t.Logf("capture3: %v", err)
			return false
		}
		if d := vfs.Diff(s3, s2c); d != "" {
			t.Logf("seed %d remount diff: %s", seed, d)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func applyOp(f vfs.FS, kind int, a, b string, off int64, n int, seed int64) error {
	switch kind {
	case 0:
		fd, err := f.Create(a)
		if err != nil {
			return err
		}
		return f.Close(fd)
	case 1:
		return f.Mkdir(a)
	case 2:
		fd, err := f.Open(a)
		if err != nil {
			return err
		}
		defer f.Close(fd)
		buf := make([]byte, n)
		rand.New(rand.NewSource(seed)).Read(buf)
		_, err = f.Pwrite(fd, buf, off)
		return err
	case 3:
		return f.Unlink(a)
	case 4:
		return f.Rmdir(a)
	case 5:
		return f.Rename(a, b)
	case 6:
		return f.Link(a, b)
	case 7:
		return f.Truncate(a, off)
	case 8:
		fd, err := f.Open(a)
		if err != nil {
			return err
		}
		defer f.Close(fd)
		return f.Fallocate(fd, off, int64(n))
	}
	return nil
}

func TestErrors(t *testing.T) {
	f, _ := newWinefs(t, bugs.None())
	if _, err := f.Create("/missing/x"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatal(err)
	}
	f.Create("/a")
	if _, err := f.Create("/a"); !errors.Is(err, vfs.ErrExist) {
		t.Fatal(err)
	}
	f.Mkdir("/d")
	if err := f.Unlink("/d"); !errors.Is(err, vfs.ErrIsDir) {
		t.Fatal(err)
	}
	if err := f.Rmdir("/a"); !errors.Is(err, vfs.ErrNotDir) {
		t.Fatal(err)
	}
	if _, err := f.Pwrite(77, []byte{1}, 0); !errors.Is(err, vfs.ErrBadFD) {
		t.Fatal(err)
	}
}

func TestCaps(t *testing.T) {
	f, _ := newWinefs(t, bugs.None())
	if !f.Caps().AtomicWrite {
		t.Fatal("strict mode should advertise atomic writes")
	}
	g, _ := newWinefs(t, bugs.None(), WithMode(Relaxed))
	if g.Caps().AtomicWrite {
		t.Fatal("relaxed mode should not advertise atomic writes")
	}
}

// TestUnlinkWhileOpenCrashReclaims covers a crash between unlink and the
// last close: the inode's slot is still valid, with nlink 0, but no
// directory reaches it, and Mount's orphan GC reclaims it — the free block
// and inode counts return to their values before the file was created.
// Without a crash the last close reclaims it, and a crash after that
// finds nothing to reclaim.
func TestUnlinkWhileOpenCrashReclaims(t *testing.T) {
	f, dev := newWinefs(t, bugs.None())
	// The first create gives the root its directory block (or log page),
	// which stays: count from there.
	if _, err := f.Create("/keep"); err != nil {
		t.Fatal(err)
	}
	blocks, inodes := f.Pool.Free(), f.Slots.Free()
	fd, err := f.Create("/victim")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Pwrite(fd, make([]byte, 3*BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Unlink("/victim"); err != nil {
		t.Fatal(err)
	}
	if f.Pool.Free() >= blocks || f.Slots.Free() >= inodes {
		t.Fatal("the unlinked-but-open file is already reclaimed")
	}
	mounted := func(img []byte) *FS {
		t.Helper()
		f2 := New(persist.New(pmem.FromImage(img)), bugs.None())
		if err := f2.Mount(); err != nil {
			t.Fatal(err)
		}
		return f2
	}
	check := func(when string, f *FS) {
		t.Helper()
		if got, gotI := f.Pool.Free(), f.Slots.Free(); got != blocks || gotI != inodes {
			t.Errorf("%s: %d free blocks, %d free inodes; want %d, %d", when, got, gotI, blocks, inodes)
		}
	}
	check("after crash and mount", mounted(dev.CrashImage()))

	if err := f.Close(fd); err != nil {
		t.Fatal(err)
	}
	check("after the last close", f)
	check("after the last close, crash and mount", mounted(dev.CrashImage()))
}
