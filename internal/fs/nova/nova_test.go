package nova

import (
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

func newRef(t *testing.T) vfs.FS {
	t.Helper()
	ref := memfs.New()
	if err := ref.Mkfs(); err != nil {
		t.Fatal(err)
	}
	return ref
}

const testDevSize = 4 << 20

func newNova(t *testing.T, set bugs.Set, opts ...Option) (*FS, *pmem.Device) {
	t.Helper()
	dev := pmem.NewDevice(testDevSize)
	f := New(persist.New(dev), set, opts...)
	if err := f.Mkfs(); err != nil {
		t.Fatal(err)
	}
	return f, dev
}

func writeFile(t *testing.T, f vfs.FS, path string, data []byte, off int64) {
	t.Helper()
	fd, err := f.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close(fd)
	if _, err := f.Pwrite(fd, data, off); err != nil {
		t.Fatalf("pwrite %s: %v", path, err)
	}
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

func TestMkfsAndRootStat(t *testing.T) {
	f, _ := newNova(t, bugs.None())
	st, err := f.Stat("/")
	if err != nil {
		t.Fatal(err)
	}
	if st.Type != vfs.TypeDir || st.Nlink != 2 {
		t.Fatalf("root stat = %+v", st)
	}
	ents, err := f.ReadDir("/")
	if err != nil || len(ents) != 0 {
		t.Fatalf("root entries = %v, %v", ents, err)
	}
}

func TestCreateWriteRead(t *testing.T) {
	f, _ := newNova(t, bugs.None())
	fd, err := f.Create("/a")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("the quick brown fox")
	if _, err := f.Pwrite(fd, data, 0); err != nil {
		t.Fatal(err)
	}
	f.Close(fd)
	if got := readFile(t, f, "/a"); !bytes.Equal(got, data) {
		t.Fatalf("read = %q", got)
	}
	st, _ := f.Stat("/a")
	if st.Size != int64(len(data)) || st.Nlink != 1 {
		t.Fatalf("stat = %+v", st)
	}
}

func TestWriteCrossPageAndSparse(t *testing.T) {
	f, _ := newNova(t, bugs.None())
	fd, _ := f.Create("/a")
	big := make([]byte, PageSize+100)
	for i := range big {
		big[i] = byte(i)
	}
	if _, err := f.Pwrite(fd, big, PageSize-50); err != nil {
		t.Fatal(err)
	}
	st, _ := f.Stat("/a")
	if st.Size != PageSize-50+int64(len(big)) {
		t.Fatalf("size = %d", st.Size)
	}
	// Hole reads as zeros.
	buf := make([]byte, 10)
	if _, err := f.Pread(fd, buf, 0); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("hole not zero")
		}
	}
	// Data round-trips.
	got := make([]byte, len(big))
	f.Pread(fd, got, PageSize-50)
	if !bytes.Equal(got, big) {
		t.Fatal("cross-page data mismatch")
	}
}

func TestOverwritePreservesRest(t *testing.T) {
	f, _ := newNova(t, bugs.None())
	fd, _ := f.Create("/a")
	f.Pwrite(fd, []byte("AAAAAAAAAA"), 0)
	f.Pwrite(fd, []byte("BB"), 4)
	got := readFile(t, f, "/a")
	if string(got) != "AAAABBAAAA" {
		t.Fatalf("got %q", got)
	}
}

func TestMkdirTreeAndRmdir(t *testing.T) {
	f, _ := newNova(t, bugs.None())
	if err := f.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := f.Mkdir("/d/e"); err != nil {
		t.Fatal(err)
	}
	st, _ := f.Stat("/d")
	if st.Nlink != 3 {
		t.Fatalf("dir nlink = %d", st.Nlink)
	}
	if err := f.Rmdir("/d"); !errors.Is(err, vfs.ErrNotEmpty) {
		t.Fatalf("rmdir non-empty: %v", err)
	}
	if err := f.Rmdir("/d/e"); err != nil {
		t.Fatal(err)
	}
	if err := f.Rmdir("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat("/d"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatal("dir survived rmdir")
	}
}

func TestLinkUnlink(t *testing.T) {
	f, _ := newNova(t, bugs.None())
	fd, _ := f.Create("/a")
	f.Pwrite(fd, []byte("shared"), 0)
	f.Close(fd)
	if err := f.Link("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	sa, _ := f.Stat("/a")
	sb, _ := f.Stat("/b")
	if sa.Ino != sb.Ino || sa.Nlink != 2 {
		t.Fatalf("link stats: %+v %+v", sa, sb)
	}
	if err := f.Unlink("/a"); err != nil {
		t.Fatal(err)
	}
	sb, _ = f.Stat("/b")
	if sb.Nlink != 1 {
		t.Fatalf("nlink = %d", sb.Nlink)
	}
	if got := readFile(t, f, "/b"); string(got) != "shared" {
		t.Fatalf("data = %q", got)
	}
	if err := f.Unlink("/b"); err != nil {
		t.Fatal(err)
	}
}

func TestRenameVariants(t *testing.T) {
	f, _ := newNova(t, bugs.None())
	fd, _ := f.Create("/a")
	f.Pwrite(fd, []byte("x"), 0)
	f.Close(fd)
	// Same-dir.
	if err := f.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat("/a"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatal("old name lives")
	}
	// Cross-dir.
	f.Mkdir("/d")
	if err := f.Rename("/b", "/d/c"); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, f, "/d/c"); string(got) != "x" {
		t.Fatalf("data = %q", got)
	}
	// Overwrite.
	fd2, _ := f.Create("/victim")
	f.Pwrite(fd2, []byte("victimdata"), 0)
	f.Close(fd2)
	if err := f.Rename("/d/c", "/victim"); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, f, "/victim"); string(got) != "x" {
		t.Fatalf("overwrite = %q", got)
	}
	// Directory rename across parents.
	f.Mkdir("/p1")
	f.Mkdir("/p1/sub")
	f.Mkdir("/p2")
	if err := f.Rename("/p1/sub", "/p2/sub"); err != nil {
		t.Fatal(err)
	}
	p1, _ := f.Stat("/p1")
	p2, _ := f.Stat("/p2")
	if p1.Nlink != 2 || p2.Nlink != 3 {
		t.Fatalf("dir nlinks after move: %d %d", p1.Nlink, p2.Nlink)
	}
}

func TestTruncateShrinkExtend(t *testing.T) {
	f, _ := newNova(t, bugs.None())
	fd, _ := f.Create("/a")
	data := make([]byte, 6000)
	for i := range data {
		data[i] = byte(i%250) + 1
	}
	f.Pwrite(fd, data, 0)
	if err := f.Truncate("/a", 100); err != nil {
		t.Fatal(err)
	}
	st, _ := f.Stat("/a")
	if st.Size != 100 {
		t.Fatalf("size = %d", st.Size)
	}
	if got := readFile(t, f, "/a"); !bytes.Equal(got, data[:100]) {
		t.Fatal("prefix lost")
	}
	// Extend re-exposes zeros, not stale bytes.
	if err := f.Truncate("/a", 200); err != nil {
		t.Fatal(err)
	}
	got := readFile(t, f, "/a")
	if !bytes.Equal(got[:100], data[:100]) {
		t.Fatal("prefix lost after extend")
	}
	for _, b := range got[100:] {
		if b != 0 {
			t.Fatalf("stale bytes after extend: %v", got[100:])
		}
	}
}

func TestFallocate(t *testing.T) {
	f, _ := newNova(t, bugs.None())
	fd, _ := f.Create("/a")
	f.Pwrite(fd, []byte("keepme"), 0)
	if err := f.Fallocate(fd, 0, 8000); err != nil {
		t.Fatal(err)
	}
	st, _ := f.Stat("/a")
	if st.Size != 8000 {
		t.Fatalf("size = %d", st.Size)
	}
	// Fallocate must not clobber existing data.
	got := readFile(t, f, "/a")
	if string(got[:6]) != "keepme" {
		t.Fatalf("data clobbered: %q", got[:6])
	}
}

func TestErrors(t *testing.T) {
	f, _ := newNova(t, bugs.None())
	if _, err := f.Create("/missing/x"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("create in missing dir: %v", err)
	}
	f.Create("/a")
	if _, err := f.Create("/a"); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := f.Mkdir("/a"); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("mkdir over file: %v", err)
	}
	if _, err := f.Open("/nope"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("open missing: %v", err)
	}
	f.Mkdir("/d")
	if err := f.Unlink("/d"); !errors.Is(err, vfs.ErrIsDir) {
		t.Fatalf("unlink dir: %v", err)
	}
	if err := f.Rmdir("/a"); !errors.Is(err, vfs.ErrNotDir) {
		t.Fatalf("rmdir file: %v", err)
	}
	if err := f.Rename("/d", "/d/x"); !errors.Is(err, vfs.ErrInvalid) {
		t.Fatalf("rename into self: %v", err)
	}
	if err := f.Link("/d", "/l"); !errors.Is(err, vfs.ErrIsDir) {
		t.Fatalf("link dir: %v", err)
	}
	if err := f.Truncate("/a", -5); !errors.Is(err, vfs.ErrInvalid) {
		t.Fatalf("negative truncate: %v", err)
	}
}

// remount unmounts and mounts a fresh FS instance over the same device,
// forcing a full recovery scan of the durable state.
func remount(t *testing.T, dev *pmem.Device, set bugs.Set, opts ...Option) *FS {
	t.Helper()
	f2 := New(persist.New(dev), set, opts...)
	if err := f2.Mount(); err != nil {
		t.Fatalf("remount: %v", err)
	}
	return f2
}

func TestRemountPreservesState(t *testing.T) {
	for _, fortis := range []bool{false, true} {
		var opts []Option
		if fortis {
			opts = append(opts, WithFortis())
		}
		f, dev := newNova(t, bugs.None(), opts...)
		fd, _ := f.Create("/a")
		f.Pwrite(fd, []byte("persistent data"), 0)
		f.Close(fd)
		f.Mkdir("/d")
		f.Create("/d/inner")
		f.Link("/a", "/d/hard")
		f.Unmount()

		f2 := remount(t, dev, bugs.None(), opts...)
		if got := readFile(t, f2, "/a"); string(got) != "persistent data" {
			t.Fatalf("fortis=%v: data = %q", fortis, got)
		}
		st, err := f2.Stat("/d/hard")
		if err != nil || st.Nlink != 2 {
			t.Fatalf("fortis=%v: hard link: %+v %v", fortis, st, err)
		}
		if _, err := f2.Stat("/d/inner"); err != nil {
			t.Fatalf("fortis=%v: inner: %v", fortis, err)
		}
	}
}

func TestRemountAfterLogChaining(t *testing.T) {
	// More root-dir operations than one scaled-down log page holds.
	f, dev := newNova(t, bugs.None())
	names := []string{"/a", "/b", "/c", "/d", "/e", "/f", "/g", "/h"}
	for _, n := range names {
		if _, err := f.Create(n); err != nil {
			t.Fatalf("create %s: %v", n, err)
		}
	}
	f.Unmount()
	f2 := remount(t, dev, bugs.None())
	ents, err := f2.ReadDir("/")
	if err != nil || len(ents) != len(names) {
		t.Fatalf("entries after chaining = %d, %v", len(ents), err)
	}
}

// TestCrashImageSynchrony: NOVA is synchronous — mounting the persistent
// image after completed operations must reproduce exactly the pre-crash
// observable state.
func TestCrashImageSynchrony(t *testing.T) {
	f, dev := newNova(t, bugs.None())
	fd, _ := f.Create("/a")
	f.Pwrite(fd, []byte("synchronous!"), 0)
	f.Close(fd)
	f.Mkdir("/d")
	f.Rename("/a", "/d/b")

	img := dev.CrashImage()
	f2 := New(persist.New(pmem.FromImage(img)), bugs.None())
	if err := f2.Mount(); err != nil {
		t.Fatalf("mount crash image: %v", err)
	}
	if got := readFile(t, f2, "/d/b"); string(got) != "synchronous!" {
		t.Fatalf("data after crash = %q", got)
	}
	if _, err := f2.Stat("/a"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatal("old name present after crash")
	}
}

func TestOrphanGC(t *testing.T) {
	// An inode initialized but whose dentry publish never landed must be
	// garbage-collected at mount. Simulate by crafting: create a file, then
	// crash image taken BEFORE the op completes is hard to get here, so
	// instead verify free-space steady-state: create+unlink cycles do not
	// leak pages across remounts.
	f, dev := newNova(t, bugs.None())
	for i := 0; i < 20; i++ {
		fd, err := f.Create("/tmp")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Pwrite(fd, make([]byte, 5000), 0); err != nil {
			t.Fatal(err)
		}
		f.Close(fd)
		if err := f.Unlink("/tmp"); err != nil {
			t.Fatal(err)
		}
	}
	free1 := f.alloc.Free()
	f.Unmount()
	f2 := remount(t, dev, bugs.None())
	free2 := f2.alloc.Free()
	if free2 < free1 {
		t.Fatalf("pages leaked across remount: %d -> %d", free1, free2)
	}
}

func TestBadFDAndClosedFD(t *testing.T) {
	f, _ := newNova(t, bugs.None())
	if _, err := f.Pwrite(99, []byte("x"), 0); !errors.Is(err, vfs.ErrBadFD) {
		t.Fatal("bad fd write")
	}
	fd, _ := f.Create("/a")
	f.Close(fd)
	if _, err := f.Pread(fd, make([]byte, 1), 0); !errors.Is(err, vfs.ErrBadFD) {
		t.Fatal("closed fd read")
	}
	if err := f.Fsync(fd); !errors.Is(err, vfs.ErrBadFD) {
		t.Fatal("closed fd fsync")
	}
}

func TestFortisReadsVerifyChecksums(t *testing.T) {
	f, dev := newNova(t, bugs.None(), WithFortis())
	fd, _ := f.Create("/a")
	f.Pwrite(fd, []byte("checksummed"), 0)
	f.Close(fd)
	f.Unmount()
	f2 := remount(t, dev, bugs.None(), WithFortis())
	if got := readFile(t, f2, "/a"); string(got) != "checksummed" {
		t.Fatalf("data = %q", got)
	}
}

func TestCapsNames(t *testing.T) {
	f, _ := newNova(t, bugs.None())
	if f.Caps().Name != "nova" || !f.Caps().Strong || !f.Caps().AtomicWrite {
		t.Fatalf("caps = %+v", f.Caps())
	}
	g, _ := newNova(t, bugs.None(), WithFortis())
	if g.Caps().Name != "nova-fortis" {
		t.Fatalf("caps = %+v", g.Caps())
	}
}

func TestMountGarbageImageFails(t *testing.T) {
	dev := pmem.NewDevice(testDevSize)
	f := New(persist.New(dev), bugs.None())
	if err := f.Mount(); !errors.Is(err, vfs.ErrCorrupt) {
		t.Fatalf("mount of unformatted device: %v", err)
	}
}

// applyOps drives the same random operation sequence against two file
// systems and reports whether every op returned equivalent errors.
type refOp struct {
	kind int
	a, b string
	off  int64
	n    int
	seed int64
}

func genOps(rng *rand.Rand, count int) []refOp {
	paths := []string{"/f0", "/f1", "/d0/f2", "/d0", "/d1"}
	ops := make([]refOp, count)
	for i := range ops {
		ops[i] = refOp{
			kind: rng.Intn(9),
			a:    paths[rng.Intn(len(paths))],
			b:    paths[rng.Intn(len(paths))],
			off:  rng.Int63n(5000),
			n:    rng.Intn(3000) + 1,
			seed: rng.Int63(),
		}
	}
	return ops
}

func applyOp(f vfs.FS, op refOp) error {
	switch op.kind {
	case 0:
		fd, err := f.Create(op.a)
		if err != nil {
			return err
		}
		return f.Close(fd)
	case 1:
		return f.Mkdir(op.a)
	case 2:
		fd, err := f.Open(op.a)
		if err != nil {
			return err
		}
		defer f.Close(fd)
		buf := make([]byte, op.n)
		r := rand.New(rand.NewSource(op.seed))
		r.Read(buf)
		_, err = f.Pwrite(fd, buf, op.off)
		return err
	case 3:
		return f.Unlink(op.a)
	case 4:
		return f.Rmdir(op.a)
	case 5:
		return f.Rename(op.a, op.b)
	case 6:
		return f.Link(op.a, op.b)
	case 7:
		return f.Truncate(op.a, op.off)
	case 8:
		fd, err := f.Open(op.a)
		if err != nil {
			return err
		}
		defer f.Close(fd)
		return f.Fallocate(fd, op.off, int64(op.n))
	}
	return nil
}

// TestPropertyDifferentialVsMemfs: fixed NOVA must be observationally
// equivalent to the in-memory reference model under random workloads,
// including after a remount.
func TestPropertyDifferentialVsMemfs(t *testing.T) {
	runDifferential(t, false)
}

func TestPropertyDifferentialVsMemfsFortis(t *testing.T) {
	runDifferential(t, true)
}

func runDifferential(t *testing.T, fortis bool) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var opts []Option
		if fortis {
			opts = append(opts, WithFortis())
		}
		dev := pmem.NewDevice(testDevSize)
		nv := New(persist.New(dev), bugs.None(), opts...)
		if err := nv.Mkfs(); err != nil {
			t.Fatalf("mkfs: %v", err)
		}
		ref := newRef(t)

		for _, op := range genOps(rng, 30) {
			errN := applyOp(nv, op)
			errR := applyOp(ref, op)
			if (errN == nil) != (errR == nil) {
				t.Logf("seed %d: op %+v: nova=%v ref=%v", seed, op, errN, errR)
				return false
			}
		}
		sN, errN := vfs.Capture(nv)
		sR, errR := vfs.Capture(ref)
		if errN != nil || errR != nil {
			t.Logf("capture: %v %v", errN, errR)
			return false
		}
		if d := vfs.Diff(sN, sR); d != "" {
			t.Logf("seed %d live diff: %s", seed, d)
			return false
		}
		// Remount and compare again.
		nv.Unmount()
		nv2 := New(persist.New(dev), bugs.None(), opts...)
		if err := nv2.Mount(); err != nil {
			t.Logf("seed %d remount: %v", seed, err)
			return false
		}
		s2, err := vfs.Capture(nv2)
		if err != nil {
			t.Logf("capture2: %v", err)
			return false
		}
		if d := vfs.Diff(s2, sR); d != "" {
			t.Logf("seed %d remount diff: %s", seed, d)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestLogGCReclaimsDeadEntries: creat/unlink churn on one directory must
// not grow the root log without bound; GC rewrites the live entries and
// the state survives a remount.
func TestLogGCReclaimsDeadEntries(t *testing.T) {
	f, dev := newNova(t, bugs.None())
	for i := 0; i < 60; i++ {
		if _, err := f.Create("/churn"); err != nil {
			t.Fatal(err)
		}
		if err := f.Unlink("/churn"); err != nil {
			t.Fatal(err)
		}
	}
	f.Create("/keep")
	root := f.Nodes[RootIno]
	if len(root.logPages) > 10 {
		t.Fatalf("root log grew to %d pages despite GC", len(root.logPages))
	}
	f.Unmount()
	f2 := remount(t, dev, bugs.None())
	ents, err := f2.ReadDir("/")
	if err != nil || len(ents) != 1 || ents[0].Name != "keep" {
		t.Fatalf("post-GC remount: %v %v", ents, err)
	}
}

// TestLogGCOnFileOverwrites: repeated overwrites supersede write entries;
// the file log must be collected and data preserved.
func TestLogGCOnFileOverwrites(t *testing.T) {
	f, dev := newNova(t, bugs.None())
	fd, _ := f.Create("/a")
	for i := 0; i < 50; i++ {
		if _, err := f.Pwrite(fd, []byte{byte(i + 1)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	f.Pwrite(fd, []byte("final"), 0)
	d, _ := f.Descs.Get(fd)
	if len(d.logPages) > 10 {
		t.Fatalf("file log grew to %d pages despite GC", len(d.logPages))
	}
	f.Close(fd)
	f.Unmount()
	f2 := remount(t, dev, bugs.None())
	if got := readFile(t, f2, "/a"); string(got) != "final" {
		t.Fatalf("data after GC+remount = %q", got)
	}
}

// TestLogGCFortis: GC must keep Fortis checksums and replicas coherent.
func TestLogGCFortis(t *testing.T) {
	f, dev := newNova(t, bugs.None(), WithFortis())
	for i := 0; i < 60; i++ {
		f.Create("/churn")
		f.Unlink("/churn")
	}
	f.Create("/keep")
	f.Unmount()
	f2 := remount(t, dev, bugs.None(), WithFortis())
	if _, err := f2.Stat("/keep"); err != nil {
		t.Fatal(err)
	}
}

// TestUnlinkWhileOpenCrashReclaims covers a crash between unlink and the
// last close: the inode is valid on PM but unreachable, and Mount's orphan
// GC reclaims it, so the free page and inode counts return to their values
// before the file was created. Without a crash the last close reclaims it.
func TestUnlinkWhileOpenCrashReclaims(t *testing.T) {
	f, dev := newNova(t, bugs.None())
	pages, inodes := f.alloc.Free(), f.ialloc.Free()
	fd, err := f.Create("/victim")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Pwrite(fd, make([]byte, 3*PageSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Unlink("/victim"); err != nil {
		t.Fatal(err)
	}
	if f.alloc.Free() >= pages || f.ialloc.Free() >= inodes {
		t.Fatal("the unlinked-but-open file is already reclaimed")
	}

	f2 := New(persist.New(pmem.FromImage(dev.CrashImage())), bugs.None())
	if err := f2.Mount(); err != nil {
		t.Fatal(err)
	}
	if got := f2.alloc.Free(); got != pages {
		t.Errorf("after crash and mount: %d free pages, want %d", got, pages)
	}
	if got := f2.ialloc.Free(); got != inodes {
		t.Errorf("after crash and mount: %d free inodes, want %d", got, inodes)
	}

	if err := f.Close(fd); err != nil {
		t.Fatal(err)
	}
	if f.alloc.Free() != pages || f.ialloc.Free() != inodes {
		t.Errorf("after the last close: %d free pages, %d free inodes; want %d, %d",
			f.alloc.Free(), f.ialloc.Free(), pages, inodes)
	}
}
