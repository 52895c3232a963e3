package extdax

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"chipmunk/internal/fs/memfs"
	"chipmunk/internal/persist"
	"chipmunk/internal/pmem"
	"chipmunk/internal/vfs"
)

const testDevSize = 4 << 20

func newExt(t *testing.T, v Variant) (*FS, *pmem.Device) {
	t.Helper()
	dev := pmem.NewDevice(testDevSize)
	f := New(persist.New(dev), v)
	if err := f.Mkfs(); err != nil {
		t.Fatal(err)
	}
	return f, dev
}

func TestVolatileUntilFsync(t *testing.T) {
	f, dev := newExt(t, Ext4)
	fd, _ := f.Create("/a")
	f.Pwrite(fd, []byte("not yet durable"), 0)

	// Crash without fsync: the file is gone.
	f2 := New(persist.New(pmem.FromImage(dev.CrashImage())), Ext4)
	if err := f2.Mount(); err != nil {
		t.Fatalf("mount: %v", err)
	}
	if _, err := f2.Stat("/a"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("unsynced file survived crash: %v", err)
	}

	// After fsync it survives.
	if err := f.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	f3 := New(persist.New(pmem.FromImage(dev.CrashImage())), Ext4)
	if err := f3.Mount(); err != nil {
		t.Fatal(err)
	}
	st, err := f3.Stat("/a")
	if err != nil || st.Size != 15 {
		t.Fatalf("synced file: %+v %v", st, err)
	}
	fd3, _ := f3.Open("/a")
	buf := make([]byte, 15)
	f3.Pread(fd3, buf, 0)
	if string(buf) != "not yet durable" {
		t.Fatalf("data = %q", buf)
	}
}

func TestCrashRevertsToLastCommit(t *testing.T) {
	f, dev := newExt(t, Ext4)
	fd, _ := f.Create("/a")
	f.Pwrite(fd, []byte("v1"), 0)
	f.Sync()
	f.Pwrite(fd, []byte("v2"), 0)
	f.Unlink("/a") // volatile: unlink after the sync

	f2 := New(persist.New(pmem.FromImage(dev.CrashImage())), Ext4)
	if err := f2.Mount(); err != nil {
		t.Fatal(err)
	}
	fd2, err := f2.Open("/a")
	if err != nil {
		t.Fatalf("file should be back at v1: %v", err)
	}
	buf := make([]byte, 2)
	f2.Pread(fd2, buf, 0)
	if string(buf) != "v1" {
		t.Fatalf("data = %q, want v1", buf)
	}
}

func TestTornCommitIgnored(t *testing.T) {
	// A commit whose records are durable but whose commit block is not must
	// be ignored: simulate by syncing, then writing a valid-looking header
	// with garbage body directly past the log end.
	f, dev := newExt(t, Ext4)
	fd, _ := f.Create("/a")
	f.Fsync(fd)
	// Corrupt: place a tx header at jTail with no commit record.
	hdr := make([]byte, txHdrSize)
	hdr[0], hdr[1], hdr[2], hdr[3] = 0x42, 0x34, 0x58, 0x54 // txMagic LE
	dev.NTStore(f.jTail, hdr)
	dev.Fence()
	f2 := New(persist.New(pmem.FromImage(dev.CrashImage())), Ext4)
	if err := f2.Mount(); err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Stat("/a"); err != nil {
		t.Fatalf("state before torn tx lost: %v", err)
	}
}

func TestVariants(t *testing.T) {
	e, _ := newExt(t, Ext4)
	x, _ := newExt(t, XFS)
	if e.Caps().Name != "ext4-dax" || x.Caps().Name != "xfs-dax" {
		t.Fatal("variant names")
	}
	if e.Caps().Strong || x.Caps().Strong {
		t.Fatal("DAX systems must advertise weak guarantees")
	}
	// Mounting with the wrong variant fails (different magic).
	dev := pmem.NewDevice(testDevSize)
	f := New(persist.New(dev), Ext4)
	f.Mkfs()
	wrong := New(persist.New(pmem.FromImage(dev.CrashImage())), XFS)
	if err := wrong.Mount(); !errors.Is(err, vfs.ErrCorrupt) {
		t.Fatalf("cross-variant mount: %v", err)
	}
}

func TestTagPlumbing(t *testing.T) {
	f, dev := newExt(t, Ext4)
	f.Create("/a")
	if err := f.CommitTagged(42); err != nil {
		t.Fatal(err)
	}
	f2 := New(persist.New(pmem.FromImage(dev.CrashImage())), Ext4)
	if err := f2.Mount(); err != nil {
		t.Fatal(err)
	}
	if f2.Tag() != 42 {
		t.Fatalf("tag = %d", f2.Tag())
	}
}

func TestPropertyDifferentialVsMemfsWithSync(t *testing.T) {
	paths := []string{"/f0", "/f1", "/d0/f2", "/d0", "/d1"}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dev := pmem.NewDevice(testDevSize)
		ef := New(persist.New(dev), Ext4)
		if err := ef.Mkfs(); err != nil {
			t.Fatal(err)
		}
		ref := memfs.New()
		ref.Mkfs()
		for i := 0; i < 25; i++ {
			kind := rng.Intn(10)
			a := paths[rng.Intn(len(paths))]
			b := paths[rng.Intn(len(paths))]
			off := rng.Int63n(5000)
			n := rng.Intn(3000) + 1
			s2 := rng.Int63()
			e1 := applyOp(ef, kind, a, b, off, n, s2)
			e2 := applyOp(ref, kind, a, b, off, n, s2)
			if (e1 == nil) != (e2 == nil) {
				t.Logf("seed %d op %d: ext=%v ref=%v", seed, kind, e1, e2)
				return false
			}
		}
		s1, err1 := vfs.Capture(ef)
		s2c, err2 := vfs.Capture(ref)
		if err1 != nil || err2 != nil {
			return false
		}
		if d := vfs.Diff(s1, s2c); d != "" {
			t.Logf("seed %d diff: %s", seed, d)
			return false
		}
		// Sync, crash, remount: must equal the reference exactly.
		if err := ef.Sync(); err != nil {
			t.Logf("sync: %v", err)
			return false
		}
		ef2 := New(persist.New(pmem.FromImage(dev.CrashImage())), Ext4)
		if err := ef2.Mount(); err != nil {
			t.Logf("seed %d remount: %v", seed, err)
			return false
		}
		s3, err := vfs.Capture(ef2)
		if err != nil {
			return false
		}
		if d := vfs.Diff(s3, s2c); d != "" {
			t.Logf("seed %d post-sync diff: %s", seed, d)
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
	case 9:
		return f.Sync()
	}
	return nil
}

func TestHardLinkSurvivesSync(t *testing.T) {
	f, dev := newExt(t, Ext4)
	fd, _ := f.Create("/a")
	f.Pwrite(fd, []byte("linked"), 0)
	f.Link("/a", "/b")
	f.Sync()
	f2 := New(persist.New(pmem.FromImage(dev.CrashImage())), Ext4)
	if err := f2.Mount(); err != nil {
		t.Fatal(err)
	}
	sa, _ := f2.Stat("/a")
	sb, _ := f2.Stat("/b")
	if sa.Ino != sb.Ino || sa.Nlink != 2 {
		t.Fatalf("hard link lost: %+v %+v", sa, sb)
	}
	bs := make([]byte, 6)
	fdb, _ := f2.Open("/b")
	f2.Pread(fdb, bs, 0)
	if !bytes.Equal(bs, []byte("linked")) {
		t.Fatalf("data = %q", bs)
	}
}

func TestXattrsSurviveCommit(t *testing.T) {
	f, dev := newExt(t, Ext4)
	fd, _ := f.Create("/a")
	f.Close(fd)
	if err := f.Setxattr("/a", "user.owner", []byte("alice")); err != nil {
		t.Fatal(err)
	}
	if err := f.Setxattr("/a", "user.tag", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := f.Removexattr("/a", "user.tag"); err != nil {
		t.Fatal(err)
	}
	f.Sync()
	f2 := New(persist.New(pmem.FromImage(dev.CrashImage())), Ext4)
	if err := f2.Mount(); err != nil {
		t.Fatal(err)
	}
	v, err := f2.Getxattr("/a", "user.owner")
	if err != nil || string(v) != "alice" {
		t.Fatalf("xattr after crash: %q %v", v, err)
	}
	if _, err := f2.Getxattr("/a", "user.tag"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("removed xattr resurrected: %v", err)
	}
	names, _ := f2.Listxattr("/a")
	if len(names) != 1 || names[0] != "user.owner" {
		t.Fatalf("listxattr = %v", names)
	}
}

func TestXattrVolatileUntilCommit(t *testing.T) {
	f, dev := newExt(t, Ext4)
	fd, _ := f.Create("/a")
	f.Fsync(fd)
	f.Setxattr("/a", "user.late", []byte("v"))
	// No sync: the attribute is lost at crash.
	f2 := New(persist.New(pmem.FromImage(dev.CrashImage())), Ext4)
	if err := f2.Mount(); err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Getxattr("/a", "user.late"); err == nil {
		t.Fatal("unsynced xattr survived")
	}
}

func TestJournalCompactionPingPong(t *testing.T) {
	// A small device forces many compactions; state must survive each flip
	// and every crash image in between must mount to the last commit.
	dev := pmem.NewDevice(256 << 10)
	f := New(persist.New(dev), Ext4)
	if err := f.Mkfs(); err != nil {
		t.Fatal(err)
	}
	fd, _ := f.Create("/a")
	payload := make([]byte, 4096)
	for round := 0; round < 60; round++ {
		for i := range payload {
			payload[i] = byte(round)
		}
		if _, err := f.Pwrite(fd, payload, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Fsync(fd); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		f2 := New(persist.New(pmem.FromImage(dev.CrashImage())), Ext4)
		if err := f2.Mount(); err != nil {
			t.Fatalf("round %d: mount: %v", round, err)
		}
		fd2, err := f2.Open("/a")
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		buf := make([]byte, 4096)
		f2.Pread(fd2, buf, 0)
		if buf[0] != byte(round) || buf[4095] != byte(round) {
			t.Fatalf("round %d: data = %d/%d", round, buf[0], buf[4095])
		}
	}
}

func TestCompactionPreservesTreeAndXattrs(t *testing.T) {
	dev := pmem.NewDevice(256 << 10)
	f := New(persist.New(dev), Ext4)
	f.Mkfs()
	f.Mkdir("/d")
	fd, _ := f.Create("/d/file")
	f.Pwrite(fd, []byte("survivor"), 0)
	f.Link("/d/file", "/hard")
	f.Setxattr("/d/file", "user.k", []byte("v"))
	f.Sync()
	before, _ := vfs.Capture(f)

	// Churn until compaction certainly happened (several times).
	fd2, _ := f.Create("/churn")
	big := make([]byte, 8192)
	for i := 0; i < 40; i++ {
		f.Pwrite(fd2, big, 0)
		f.Sync()
	}
	f.Unlink("/churn")
	f.Sync()

	f3 := New(persist.New(pmem.FromImage(dev.CrashImage())), Ext4)
	if err := f3.Mount(); err != nil {
		t.Fatal(err)
	}
	after, err := vfs.Capture(f3)
	if err != nil {
		t.Fatal(err)
	}
	delete(before, "/churn")
	// The root dir entries changed (churn removed); compare the stable part.
	for _, p := range []string{"/d", "/d/file", "/hard"} {
		if !after[p].Equal(before[p]) {
			t.Fatalf("%s changed across compaction:\n got  %s\n want %s",
				p, after[p].Describe(), before[p].Describe())
		}
	}
	v, err := f3.Getxattr("/d/file", "user.k")
	if err != nil || string(v) != "v" {
		t.Fatalf("xattr lost: %q %v", v, err)
	}
}

// TestReplayedDataOutlivesLaterLoads: a mounted instance's file data
// aliases the device's read arena, whose slices hold until Device.Reset.
// Loads made after the mount on the same device — another commit and
// further mounts replaying it — must leave the first instance's files
// byte-identical.
func TestReplayedDataOutlivesLaterLoads(t *testing.T) {
	f, dev := newExt(t, Ext4)
	rng := rand.New(rand.NewSource(1))
	want := map[string][]byte{}
	for i, path := range []string{"/a", "/b", "/c", "/d"} {
		data := make([]byte, 1000+1500*i)
		rng.Read(data)
		fd, err := f.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		f.Pwrite(fd, data, 0)
		want[path] = data
		if err := f.Sync(); err != nil { // one transaction per file
			t.Fatal(err)
		}
	}
	crashed := pmem.FromImage(dev.CrashImage())
	first := New(persist.New(crashed), Ext4)
	if err := first.Mount(); err != nil {
		t.Fatal(err)
	}
	// A transaction the first mount never loaded, then mounts replaying it.
	fd, err := first.Create("/e")
	if err != nil {
		t.Fatal(err)
	}
	more := make([]byte, 20000)
	rng.Read(more)
	first.Pwrite(fd, more, 0)
	if err := first.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := New(persist.New(crashed), Ext4).Mount(); err != nil {
			t.Fatal(err)
		}
	}
	for path, data := range want {
		fd, err := first.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data)+1)
		n, _ := first.Pread(fd, got, 0)
		if !bytes.Equal(got[:n], data) {
			t.Fatalf("%s changed under later loads of the same device", path)
		}
	}
}
