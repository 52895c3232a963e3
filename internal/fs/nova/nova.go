package nova

import (
	"encoding/binary"
	"hash/crc32"
	"maps"
	"slices"

	"chipmunk/internal/bugs"
	"chipmunk/internal/persist"
	"chipmunk/internal/vfs"
)

// dnode is the DRAM inode: everything except nlink and the log pointers is
// volatile and rebuilt at mount. A directory entry's Off is its dentry-add
// log entry, so rename can invalidate it in place (the optimization behind
// bugs 4 and 5). Damaged marks an inode that a dentry references but whose
// on-PM state is invalid or inconsistent (bugs 2, 9 and 10).
type dnode struct {
	vfs.Inode
	tail int64 // mirrors the on-PM log tail
	head uint64

	pages    map[uint64]uint64 // file page -> pool page (regular files)
	logPages []uint64          // log-page chain (DRAM bookkeeping)

	// conflicted marks a Fortis primary/replica mismatch: reads work from
	// the primary but deletion is refused (bug 10's consequence).
	conflicted bool
}

// FS is the NOVA / NOVA-Fortis file system.
type FS struct {
	pm     *persist.PM
	bugs   bugs.Set
	opts   []Option
	fortis bool

	totalPages uint64
	// alloc (pool pages) and ialloc (inode slots from RootIno on; 0 is
	// "no inode") are DRAM-only: NOVA keeps allocator state volatile and
	// rebuilds it at mount by scanning inode logs (§5.1 Observation 3),
	// which makes the rebuild a bug hotspot.
	alloc   *vfs.Bitmap
	ialloc  *vfs.Bitmap
	mounted bool
	// Tree holds the DRAM inodes and the descriptor table, and answers
	// lookup, Stat, ReadDir and Open.
	vfs.Tree[*dnode]

	// lazyReplicas holds inodes whose Fortis replica update was deferred
	// to the end of the system call (bug 10).
	lazyReplicas []uint64
	// deferredCsums holds entry checksums postponed past the tail publish
	// (bug 9).
	deferredCsums []deferredCsum
	// csumBuf is csumCopy's scratch; a fork gets its own.
	csumBuf []byte
	// keys is Mount's scratch for a file's page indices in order.
	keys []uint64
}

// csumCopy is csum32 over b, read through f's small scratch a chunk at a
// time. crc32 leaks its argument, so checksumming a stack array directly
// would move the array to the heap on every path, Fortis or not; only the
// Fortis branches call this, and an FS allocates its scratch once.
func (f *FS) csumCopy(b []byte) uint32 {
	if f.csumBuf == nil {
		f.csumBuf = make([]byte, 256)
	}
	var sum uint32
	for len(b) > 0 {
		n := copy(f.csumBuf, b)
		sum = crc32.Update(sum, castagnoli, f.csumBuf[:n])
		b = b[n:]
	}
	return sum
}

// stampCsum writes the Fortis checksum into an entry being built and
// returns it.
func (f *FS) stampCsum(raw *[EntrySize]byte) uint32 {
	sum := f.csumCopy(raw[8:])
	binary.LittleEndian.PutUint32(raw[entCsum:], sum)
	return sum
}

// inodeImage builds the 128-byte primary on-PM image for d's current DRAM
// state, with the Fortis checksum stamped when applicable.
func (f *FS) inodeImage(d *dnode) (buf [128]byte) {
	binary.LittleEndian.PutUint32(buf[inoValidOff:], 1)
	binary.LittleEndian.PutUint32(buf[inoTypeOff:], uint32(d.Type))
	binary.LittleEndian.PutUint64(buf[inoNlinkOff:], d.Nlink)
	binary.LittleEndian.PutUint64(buf[inoHeadOff:], d.head)
	binary.LittleEndian.PutUint64(buf[inoTailOff:], uint64(d.tail))
	if f.fortis {
		binary.LittleEndian.PutUint32(buf[inoCsumOff:], f.csumCopy(buf[:inoCsumOff]))
	}
	return buf
}

// newDnode returns a DRAM inode of type typ for ino: a spare of an earlier
// mount, with its map and log-page chain emptied, or a new one. A
// directory gets an entry map, anything else a page map.
func (f *FS) newDnode(ino uint64, typ vfs.FileType) *dnode {
	d, ok := f.Spare(typ)
	if !ok {
		d = new(dnode)
	}
	dirents, pages, logPages := d.Dirents, d.pages, d.logPages
	*d = dnode{Inode: vfs.Inode{Ino: ino, Type: typ}, logPages: logPages[:0]}
	if typ == vfs.TypeDir {
		d.Dirents = vfs.Emptied(dirents)
	} else {
		d.pages = vfs.Emptied(pages)
	}
	return d
}

// Option configures the file system.
type Option func(*FS)

// WithFortis enables NOVA-Fortis mode: inode checksums + replicas and
// per-page data checksums.
func WithFortis() Option { return func(f *FS) { f.fortis = true } }

// New creates a NOVA instance on pm with the given injected bug set.
// bugSet = bugs.None() builds the fixed system.
func New(pm *persist.PM, bugSet bugs.Set, opts ...Option) *FS {
	f := &FS{pm: pm, bugs: bugSet, opts: opts}
	for _, o := range opts {
		o(f)
	}
	return f
}

// Remount implements vfs.Remounter. It rebuilds f as New did, keeping
// the storage of the DRAM inode table — the inodes themselves become its
// spares — both bitmaps and the scratch buffers, emptied, and mounts
// again.
func (f *FS) Remount() error {
	f.Rewind()
	*f = FS{
		pm: f.pm, bugs: f.bugs, opts: f.opts,
		Tree: f.Tree, alloc: f.alloc.Reset(0, 0), ialloc: f.ialloc.Reset(0, 0),
		csumBuf: f.csumBuf, keys: f.keys[:0],
	}
	for _, o := range f.opts {
		o(f)
	}
	return f.Mount()
}

// Caps implements vfs.FS.
func (f *FS) Caps() vfs.Caps {
	name := "nova"
	if f.fortis {
		name = "nova-fortis"
	}
	return vfs.Caps{Name: name, Strong: true, AtomicWrite: true, SyncDataWrites: true}
}

func (f *FS) has(id bugs.ID) bool { return f.bugs.Has(id) }

// Mkfs implements vfs.FS: formats the device and mounts.
func (f *FS) Mkfs() error {
	f.totalPages = uint64(f.pm.Size()) / PageSize
	if f.totalPages < poolStartPage+8 {
		return vfs.ErrNoSpace
	}
	pm := f.pm
	// Zero the metadata region: superblock, journal, inode table.
	pm.MemsetNT(0, 0, (inodeTblPage+inodeTblPages)*PageSize)
	pm.Fence()

	f.alloc, f.ialloc = vfs.NewBitmap(poolStartPage, f.totalPages), vfs.NewBitmap(RootIno, InodeCount)
	f.ialloc.Claim(RootIno)
	f.Reset(RootIno)

	// Root directory inode with an empty log page.
	headPage, err := f.alloc.Next()
	if err != nil {
		return err
	}
	pm.MemsetNT(pageOff(headPage), 0, PageSize)
	pm.Fence()
	root := f.newDnode(RootIno, vfs.TypeDir)
	root.Nlink, root.head, root.tail = 2, headPage, pageOff(headPage)
	f.writeInodeInit(root, true)
	f.Nodes[RootIno] = root

	// Superblock last: its magic validates the whole image.
	pm.Store64(sbMagicOff, Magic)
	fortis := uint64(0)
	if f.fortis {
		fortis = 1
	}
	pm.Store64(sbFortisOff, fortis)
	pm.Store64(sbPagesOff, f.totalPages)
	pm.Store64(sbInodesOff, InodeCount)
	pm.Store64(sbVersionOff, 1)
	pm.Flush(0, 40)
	pm.Fence()

	f.mounted = true
	return nil
}

// writeInodeInit persists a freshly allocated inode's on-PM state. The
// flush is skipped under bug 2 (for non-root inodes), leaving the new inode
// volatile — the "unreadable and undeletable file" PM bug.
func (f *FS) writeInodeInit(d *dnode, flush bool) {
	off := inodeOff(d.Ino)
	buf := f.inodeImage(d)
	f.pm.Store(off, buf[:])
	if flush {
		f.pm.Flush(off, 128)
	}
	f.pm.Fence()
	if f.fortis {
		// Replica copy of the primary half.
		f.pm.Store(off+inoReplicaOff, buf[:])
		if flush {
			f.pm.Flush(off+inoReplicaOff, 128)
		}
		f.pm.Fence()
	}
}

// Unmount implements vfs.FS.
func (f *FS) Unmount() error {
	f.mounted = false
	f.Drop()
	f.alloc = nil
	f.ialloc = nil
	return nil
}

// Fork implements vfs.Forker. File data lives on PM, never in DRAM, so the
// copy takes the allocator bitmaps and every DRAM inode with its page map,
// its entries and its log-page chain, and shares nothing. Only a
// whole-device PM with no deferred per-syscall work pending forks.
func (f *FS) Fork(pm persist.Space) vfs.FS {
	p, isPM := pm.(*persist.PM)
	if !isPM || len(f.lazyReplicas) > 0 || len(f.deferredCsums) > 0 {
		return nil
	}
	tree, ok := f.Tree.Fork(func(d *dnode) *dnode {
		c := *d
		c.pages, c.logPages = maps.Clone(d.pages), slices.Clone(d.logPages)
		return &c
	})
	if !ok {
		return nil
	}
	g := *f
	g.pm, g.Tree, g.csumBuf, g.keys = p, tree, nil, nil
	g.alloc, g.ialloc = f.alloc.Clone(), f.ialloc.Clone()
	return &g
}

// Close implements vfs.FS.
func (f *FS) Close(fd vfs.FD) error { return f.Descs.Close(fd, f.reclaim) }

// Fsync implements vfs.FS. NOVA is synchronous: every operation is durable
// when it returns, so fsync only validates the descriptor.
func (f *FS) Fsync(fd vfs.FD) error {
	_, err := f.Descs.Get(fd)
	return err
}

// Sync implements vfs.FS (no-op for the same reason).
func (f *FS) Sync() error { return nil }

var (
	_ vfs.FS        = (*FS)(nil)
	_ vfs.Forker    = (*FS)(nil)
	_ vfs.Remounter = (*FS)(nil)
)
