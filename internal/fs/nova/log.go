package nova

import "chipmunk/internal/bugs"

// reserveSlot returns the device offset where the next entry at the given
// tail should be written, chaining a fresh log page when the current one is
// full. The chained page is zeroed before it is linked so stale bytes can
// never masquerade as entries.
//
// Bug 1 lives here: the published algorithm linked the new page with a
// plain store, never flushing the link word. The tail (updated later, and
// flushed) can then point into the new page while the link that reaches it
// is lost in a crash — recovery follows a nil link with entries still
// outstanding and declares the log corrupt.
func (fs *FS) reserveSlot(d *dnode, tail int64) (entryOff, newTail int64, err error) {
	if tail == 0 {
		// First log page of a fresh file inode; the head pointer is
		// published together with the tail in the inode image.
		newPage, err := fs.alloc.Next()
		if err != nil {
			return 0, 0, err
		}
		fs.pm.MemsetNT(pageOff(newPage), 0, PageSize)
		fs.pm.Fence()
		d.head = newPage
		d.logPages = append(d.logPages, newPage)
		tail = pageOff(newPage)
	} else if tail%PageSize == logNextOff {
		newPage, err := fs.alloc.Next()
		if err != nil {
			return 0, 0, err
		}
		fs.pm.MemsetNT(pageOff(newPage), 0, PageSize)
		fs.pm.Fence()
		linkOff := tail // the link word sits exactly at the full-tail offset
		if fs.has(bugs.NovaTailBeforeLink) {
			fs.pm.Store64(linkOff, newPage) // missing flush: link may be lost
		} else {
			fs.pm.PersistStore64(linkOff, newPage)
		}
		fs.pm.Fence()
		d.logPages = append(d.logPages, newPage)
		tail = pageOff(newPage)
	}
	return tail, tail + EntrySize, nil
}

// writeEntry stores and flushes the encoded entry bytes at off (no fence).
func (fs *FS) writeEntry(off int64, raw *[EntrySize]byte) {
	fs.pm.Store(off, raw[:])
	fs.pm.Flush(off, EntrySize)
}

// finishEncode stamps the Fortis payload checksum unless the caller asked
// for the late-checksum path (bug 9).
func (fs *FS) finishEncode(raw *[EntrySize]byte, lateCsum bool) {
	if fs.fortis && !lateCsum {
		fs.stampCsum(raw)
	}
}

// appendEntry appends a single entry to d's log and publishes it by
// advancing the tail — the common path for single-inode operations.
//
//   - risky selects the published fast path carrying bug 3 (tail word
//     persisted and fenced before the entry bytes are flushed); it is used
//     by the operations Table 1 lists for that bug.
//   - lateCsum selects the Fortis path carrying bug 9 (entry checksum
//     updated only after the tail publish).
//
// In the fixed configuration both flags are inert.
func (fs *FS) appendEntry(d *dnode, e entry, risky, lateCsum bool) (int64, error) {
	lateCsum = lateCsum && fs.has(bugs.FortisCsumNoFlush)
	raw := e.encode()
	fs.finishEncode(&raw, lateCsum)

	entryOff, newTail, err := fs.reserveSlot(d, d.tail)
	if err != nil {
		return 0, err
	}

	if risky && fs.has(bugs.NovaEntryAfterTail) {
		// Publish the tail first, then write the entry. A crash between the
		// two leaves the tail pointing at garbage.
		d.tail = newTail
		fs.syncInode(d, false)
		fs.writeEntry(entryOff, &raw)
		fs.pm.Fence()
		return entryOff, nil
	}

	fs.writeEntry(entryOff, &raw)
	fs.pm.Fence()
	d.tail = newTail
	fs.syncInode(d, false)

	if fs.fortis && lateCsum {
		// Bug 9: checksum lands in a separate persistence step after the
		// entry is already reachable.
		fs.pm.Store32(entryOff+entCsum, fs.stampCsum(&raw))
		fs.pm.Flush(entryOff+entCsum, 4)
		fs.pm.Fence()
	}
	return entryOff, nil
}

// writeEntryNoPublish writes an entry without advancing any tail; the
// caller publishes via a journaled transaction (multi-inode operations).
// Returns the entry offset and the tail value the publish must install.
func (fs *FS) writeEntryNoPublish(d *dnode, tail int64, e entry, lateCsum bool) (entryOff, newTail int64, err error) {
	lateCsum = lateCsum && fs.has(bugs.FortisCsumNoFlush)
	raw := e.encode()
	fs.finishEncode(&raw, lateCsum)
	entryOff, newTail, err = fs.reserveSlot(d, tail)
	if err != nil {
		return 0, 0, err
	}
	fs.writeEntry(entryOff, &raw)
	fs.pm.Fence()
	if fs.fortis && lateCsum {
		fs.deferredCsums = append(fs.deferredCsums, deferredCsum{entryOff, raw})
	}
	return entryOff, newTail, nil
}

type deferredCsum struct {
	off int64
	raw [EntrySize]byte
}

// flushDeferredCsums writes entry checksums that the buggy Fortis path
// postponed past the publish (bug 9).
func (fs *FS) flushDeferredCsums() {
	for i := range fs.deferredCsums {
		dc := &fs.deferredCsums[i]
		fs.pm.Store32(dc.off+entCsum, fs.stampCsum(&dc.raw))
		fs.pm.Flush(dc.off+entCsum, 4)
		fs.pm.Fence()
	}
	fs.deferredCsums = nil
}

// invalidateEntry sets the in-place invalid flag on a published log entry —
// the in-place-update optimization behind bugs 4, 5, and 7. The 8-byte
// store covers the type/flags header word.
func (fs *FS) invalidateEntry(entryOff int64) {
	hdr := fs.pm.Load64(entryOff)
	hdr |= 1 << 8 // entFlags bit 0
	fs.pm.PersistStore64(entryOff, hdr)
	fs.pm.Fence()
	if fs.fortis {
		// Re-stamp the entry checksum over the updated payload region is
		// not needed: the csum covers [8,64) and the flags live in byte 1.
		_ = hdr
	}
}

// syncInode persists d's metadata words (nlink, head, tail) to the primary
// on-PM inode, updating the Fortis checksum, and then mirrors the primary
// into the replica. When lazyReplica is requested under bug 10 the replica
// copy is deferred to the end of the system call, opening the
// primary/replica skew window.
func (fs *FS) syncInode(d *dnode, lazyReplica bool) {
	off := inodeOff(d.Ino)
	buf := fs.inodeImage(d)
	fs.pm.Store(off, buf[:])
	fs.pm.Flush(off, 128)
	fs.pm.Fence()
	if !fs.fortis {
		return
	}
	if lazyReplica && fs.has(bugs.FortisReplicaSkew) {
		fs.lazyReplicas = append(fs.lazyReplicas, d.Ino)
		return
	}
	fs.writeReplica(d.Ino, buf[:])
}

// writeReplica mirrors the primary inode image into the replica slot.
func (fs *FS) writeReplica(ino uint64, primary []byte) {
	off := inodeOff(ino)
	fs.pm.Store(off+inoReplicaOff, primary)
	fs.pm.Flush(off+inoReplicaOff, 128)
	fs.pm.Fence()
}

// flushLazyReplicas performs the deferred replica updates at syscall end
// (bug 10's buggy path still converges once the call completes, which is
// why only mid-call crashes expose it).
func (fs *FS) flushLazyReplicas() {
	for _, ino := range fs.lazyReplicas {
		primary := fs.pm.Load(inodeOff(ino), 128)
		fs.writeReplica(ino, primary)
	}
	fs.lazyReplicas = nil
}

// invalidateInode clears the on-PM valid flag when an inode is freed.
func (fs *FS) invalidateInode(ino uint64) {
	off := inodeOff(ino)
	fs.pm.PersistStore64(off, 0) // clears valid+type words
	fs.pm.Fence()
	if fs.fortis {
		fs.pm.PersistStore64(off+inoReplicaOff, 0)
		fs.pm.Fence()
	}
}
