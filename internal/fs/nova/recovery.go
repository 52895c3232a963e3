package nova

import (
	"bytes"
	"encoding/binary"
	"slices"

	"chipmunk/internal/bugs"
	"chipmunk/internal/vfs"
)

// Mount implements vfs.FS: attach to an existing (possibly crashed) image
// and rebuild all volatile state — the DRAM inode cache, directory maps,
// file-page radix trees, and the free-page allocator — by scanning the
// on-PM logs, exactly as NOVA does. This rebuild path is where Observation
// 3's bug class lives.
func (f *FS) Mount() error {
	pm := f.pm
	if pm.Load64(sbMagicOff) != Magic {
		return vfs.Corruptf("bad superblock magic %#x", pm.Load64(sbMagicOff))
	}
	f.fortis = pm.Load64(sbFortisOff) == 1
	f.totalPages = pm.Load64(sbPagesOff)
	if f.totalPages == 0 || int64(f.totalPages)*PageSize > pm.Size() {
		return vfs.Corruptf("superblock page count %d exceeds device", f.totalPages)
	}

	f.alloc, f.ialloc = f.alloc.Reset(poolStartPage, f.totalPages), f.ialloc.Reset(RootIno, InodeCount)
	f.Reset(RootIno)
	f.lazyReplicas = nil
	f.deferredCsums = nil

	// Redo a committed journal before reading any metadata.
	f.recoverJournal()

	// Pass 1: scan the inode table.
	for ino := uint64(1); ino < InodeCount; ino++ {
		d, ok := f.readInode(ino)
		if !ok {
			continue
		}
		if !f.ialloc.Claim(ino) {
			return vfs.Corruptf("inode %d claimed twice", ino)
		}
		f.Nodes[ino] = d
	}
	root, ok := f.Nodes[RootIno]
	if !ok || root.Type != vfs.TypeDir {
		return vfs.Corruptf("root inode missing or not a directory")
	}

	// Passes 2, 3 and 6 iterate inodes in ascending order — the inode
	// slots pass 1 claimed — never in map order: with several inodes
	// corrupt, WHICH one aborts the mount (and so the error a crash-state
	// check reports) must be a function of the image alone, or two mounts
	// of the same crash image classify it differently and bug triage stops
	// being reproducible.
	for ino, ok := f.ialloc.NextUsed(RootIno); ok; ino, ok = f.ialloc.NextUsed(ino + 1) {
		if err := f.rebuildLog(f.Nodes[ino]); err != nil {
			return err
		}
	}

	// Pass 3: claim referenced pages; double references are corruption.
	// Only this pass claims pages, so until pass 4 frees one, a page is
	// in use exactly when an inode references it.
	for ino, ok := f.ialloc.NextUsed(RootIno); ok; ino, ok = f.ialloc.NextUsed(ino + 1) {
		d := f.Nodes[ino]
		for _, lp := range d.logPages {
			if !f.alloc.Claim(lp) {
				return vfs.Corruptf("log page %d referenced twice", lp)
			}
		}
		f.keys = appendSortedKeys(f.keys[:0], d.pages)
		for _, fp := range f.keys {
			if !f.alloc.Claim(d.pages[fp]) {
				return vfs.Corruptf("data page %d referenced twice", d.pages[fp])
			}
		}
	}

	// Pass 4 (Fortis): replay the truncate free-log. Under bug 11 the log
	// survives crashes that already reclaimed (or never released) the
	// pages, and the replay tries to deallocate free or in-use blocks.
	if f.fortis {
		base := int64(freeLogPage) * PageSize
		count := pm.Load64(base)
		if count > (PageSize-8)/8 {
			return vfs.Corruptf("free-log count %d out of range", count)
		}
		for i := uint64(0); i < count; i++ {
			p := pm.Load64(base + 8 + int64(i)*8)
			if f.alloc.Used(p) {
				return vfs.Corruptf("free-log deallocates in-use page %d", p)
			}
			if !f.alloc.Release(p) {
				return vfs.Corruptf("free-log deallocates already-free page %d", p)
			}
		}
	}

	// Pass 5: a dentry pointing at a dead inode slot (bug 2's
	// consequence) resolves to a damaged placeholder that fails with EIO.
	// Pass 6: orphan GC — valid inodes unreachable from the root are
	// left-overs of interrupted operations and are reclaimed, in inode
	// order.
	for _, d := range f.Orphans(func(ino uint64) *dnode {
		return &dnode{Inode: vfs.Inode{Ino: ino, Damaged: true}}
	}) {
		f.destroyInode(d)
	}

	f.mounted = true
	return nil
}

// sortedKeys returns m's keys in ascending order: the canonical walk order
// of inode numbers and page indices, for passes whose side effects (PM
// writes, error selection) must not depend on map order.
func sortedKeys[V any](m map[uint64]V) []uint64 {
	return appendSortedKeys(make([]uint64, 0, len(m)), m)
}

// appendSortedKeys appends m's keys to dst and sorts what it appended.
func appendSortedKeys[V any](dst []uint64, m map[uint64]V) []uint64 {
	n := len(dst)
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst[n:])
	return dst
}

// readInode loads inode slot ino, handling Fortis checksum validation and
// primary/replica arbitration. ok is false for unused slots.
func (f *FS) readInode(ino uint64) (*dnode, bool) {
	off := inodeOff(ino)
	primary := f.pm.Load(off, 128)
	if !f.fortis {
		if binary.LittleEndian.Uint32(primary[inoValidOff:]) != 1 {
			return nil, false
		}
		return f.dnodeFromImage(ino, primary), true
	}

	replica := f.pm.Load(off+inoReplicaOff, 128)
	pOK := binary.LittleEndian.Uint32(primary[inoValidOff:]) == 1 && csum32(primary[:inoCsumOff]) == binary.LittleEndian.Uint32(primary[inoCsumOff:])
	rOK := binary.LittleEndian.Uint32(replica[inoValidOff:]) == 1 && csum32(replica[:inoCsumOff]) == binary.LittleEndian.Uint32(replica[inoCsumOff:])
	switch {
	case pOK && rOK:
		d := f.dnodeFromImage(ino, primary)
		if !bytes.Equal(primary, replica) {
			if f.has(bugs.FortisReplicaSkew) {
				// Bug 10: recovery never re-syncs the replica; the latent
				// mismatch blocks later deletions.
				d.conflicted = true
			} else {
				f.writeReplica(ino, primary)
			}
		}
		return d, true
	case pOK:
		// Torn replica update: primary is authoritative; repair replica.
		f.writeReplica(ino, primary)
		return f.dnodeFromImage(ino, primary), true
	case rOK:
		// Torn primary update: roll back to the replica.
		f.pm.Store(off, replica)
		f.pm.Flush(off, 128)
		f.pm.Fence()
		return f.dnodeFromImage(ino, replica), true
	default:
		return nil, false
	}
}

func (f *FS) dnodeFromImage(ino uint64, img []byte) *dnode {
	d := f.newDnode(ino, vfs.FileType(binary.LittleEndian.Uint32(img[inoTypeOff:])))
	d.Nlink = binary.LittleEndian.Uint64(img[inoNlinkOff:])
	d.head = binary.LittleEndian.Uint64(img[inoHeadOff:])
	d.tail = int64(binary.LittleEndian.Uint64(img[inoTailOff:]))
	return d
}

// rebuildLog replays d's log into its DRAM maps, validating structure as it
// goes. Bugs 1 and 3 surface here as corrupt-log errors; bug 9 as entries
// whose checksum no longer matches; bugs 7 and 8 as silently wrong replay.
func (f *FS) rebuildLog(d *dnode) error {
	if d.head == 0 {
		if d.tail != 0 {
			return vfs.Corruptf("inode %d: tail %d with no log", d.Ino, d.tail)
		}
		return nil
	}
	if d.head < poolStartPage || d.head >= f.totalPages {
		return vfs.Corruptf("inode %d: log head %d out of range", d.Ino, d.head)
	}
	page := d.head
	pos := pageOff(page)
	d.logPages = append(d.logPages[:0], page)

	for pos != d.tail {
		if pos%PageSize == logNextOff {
			next := f.pm.Load64(pos)
			if next == 0 {
				// The tail says more entries follow, but the link that
				// reaches them was lost — bug 1's crash signature.
				return vfs.Corruptf("inode %d: log ends at %d before tail %d", d.Ino, pos, d.tail)
			}
			if next < poolStartPage || next >= f.totalPages || slices.Contains(d.logPages, next) {
				return vfs.Corruptf("inode %d: bad log link %d", d.Ino, next)
			}
			d.logPages = append(d.logPages, next)
			page = next
			pos = pageOff(page)
			continue
		}
		raw := f.pm.Load(pos, EntrySize)
		e := decodeEntry(raw)
		if e.typ == etInvalid || e.typ > etAttr {
			// The tail points past bytes that never became a valid entry —
			// bug 3's crash signature.
			return vfs.Corruptf("inode %d: invalid log entry type %d at %d", d.Ino, e.typ, pos)
		}
		if f.fortis && payloadCsum(raw) != e.csum {
			// Bug 9: a published entry whose checksum never landed.
			if d.Type == vfs.TypeDir {
				d.Damaged = true
				return nil
			}
			// File entry: treated as unreadable and skipped — data loss.
			pos += EntrySize
			continue
		}
		if !e.invalid {
			f.replayEntry(d, e, pos)
		}
		pos += EntrySize
	}
	return nil
}

// replayEntry applies one valid entry to the DRAM state. pos is the
// entry's device offset, remembered so later renames can invalidate the
// dentry in place.
func (f *FS) replayEntry(d *dnode, e entry, pos int64) {
	switch e.typ {
	case etDentryAdd:
		if d.Dirents != nil {
			d.Dirents[e.name] = vfs.Dirent{Ino: e.ino, Off: pos}
		}
	case etDentryRemove:
		if d.Dirents != nil {
			delete(d.Dirents, e.name)
		}
	case etWrite:
		if d.pages == nil {
			return
		}
		if e.falloc && !f.has(bugs.NovaFallocUnfenced) {
			// Fixed: fallocate entries only fill holes.
			if _, mapped := d.pages[e.filePage]; !mapped {
				d.pages[e.filePage] = e.poolPage
			}
		} else {
			// Buggy (bug 8): fallocate entries clobber existing mappings.
			d.pages[e.filePage] = e.poolPage
		}
		d.Size = int64(e.sizeHint)
	case etAttr:
		d.Size = int64(e.size)
		if d.pages != nil {
			first := uint64((d.Size + PageSize - 1) / PageSize)
			for fp := range d.pages {
				if fp >= first {
					delete(d.pages, fp)
				}
			}
		}
	}
}
