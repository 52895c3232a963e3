package nova

import (
	"sort"

	"chipmunk/internal/vfs"
)

// Log garbage collection, modelled on NOVA's "thorough GC": when an
// inode's log accumulates more dead than live entries, the live entries are
// copied into a freshly built chain and the inode's head/tail are switched
// to it in one journaled transaction — the old chain only becomes garbage
// once the new one is durably published, so a crash at any point leaves one
// complete, valid log. Without GC a long-lived directory's log grows
// monotonically (every unlink appends a dentry-remove entry that makes an
// earlier dentry-add dead).
//
// GC runs opportunistically at the end of mutating operations.

// gcThresholdPages: collect once the log chain exceeds this many pages and
// most entries are dead.
const gcThresholdPages = 4

// maybeGC collects d's log if it looks mostly dead. Errors are swallowed:
// GC is an optimization and ENOSPC during GC must not fail the operation
// that triggered it.
func (fs *FS) maybeGC(d *dnode) {
	if len(d.logPages) < gcThresholdPages {
		return
	}
	live := fs.liveEntries(d)
	capacity := len(d.logPages) * entriesPerPage
	if live*2 > capacity {
		return // more than half live: not worth collecting
	}
	fs.collectLog(d, live)
}

// liveEntries counts the entries a rebuild would still need.
func (fs *FS) liveEntries(d *dnode) int {
	if d.Type == vfs.TypeDir {
		return len(d.Dirents)
	}
	// Files: one write entry per mapped page plus one attr entry for size.
	return len(d.pages) + 1
}

// collectLog rewrites the live state of d into a fresh log chain and
// publishes it atomically.
func (fs *FS) collectLog(d *dnode, live int) {
	pagesNeeded := (live + entriesPerPage) / entriesPerPage
	if pagesNeeded == 0 {
		pagesNeeded = 1
	}
	if fs.alloc.Free() < pagesNeeded+1 {
		return
	}

	// Build the new chain off to the side.
	newPages := make([]uint64, 0, pagesNeeded)
	firstPage, err := fs.alloc.Next()
	if err != nil {
		return
	}
	fs.pm.MemsetNT(pageOff(firstPage), 0, PageSize)
	newPages = append(newPages, firstPage)
	tail := pageOff(firstPage)

	writeOne := func(e entry) bool {
		if tail%PageSize == logNextOff {
			next, err := fs.alloc.Next()
			if err != nil {
				return false
			}
			fs.pm.MemsetNT(pageOff(next), 0, PageSize)
			// Links inside the not-yet-published chain need no careful
			// ordering: nothing references it until the publish.
			fs.pm.PersistStore64(tail, next)
			newPages = append(newPages, next)
			tail = pageOff(next)
		}
		raw := e.encode()
		fs.finishEncode(&raw, false)
		fs.writeEntry(tail, &raw)
		tail += EntrySize
		return true
	}

	// The compacted log's on-PM entry order is part of the image: walk the
	// DRAM maps in sorted order, never map order, so collecting the same
	// inode state always produces byte-identical log pages.
	newDirents := map[string]vfs.Dirent{}
	ok := true
	if d.Type == vfs.TypeDir {
		names := make([]string, 0, len(d.Dirents))
		for name := range d.Dirents {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			de := d.Dirents[name]
			child := fs.Nodes[de.Ino]
			ftype := vfs.TypeRegular
			if child != nil {
				ftype = child.Type
			}
			off := tail
			if !writeOne(entry{typ: etDentryAdd, ino: de.Ino, ftype: ftype, name: name}) {
				ok = false
				break
			}
			newDirents[name] = vfs.Dirent{Ino: de.Ino, Off: off}
		}
	} else {
		for _, fp := range sortedKeys(d.pages) {
			if !writeOne(entry{typ: etWrite, filePage: fp, poolPage: d.pages[fp], sizeHint: uint64(d.Size)}) {
				ok = false
				break
			}
		}
		if ok {
			ok = writeOne(entry{typ: etAttr, size: uint64(d.Size)})
		}
	}
	if !ok {
		for _, p := range newPages {
			fs.alloc.Release(p)
		}
		return
	}
	fs.pm.Fence()

	// Publish: head and tail switch together (journaled inode image).
	oldPages := d.logPages
	d.head = firstPage
	d.tail = tail
	d.logPages = newPages
	t := fs.beginTx()
	t.addInode(d, false)
	t.commit()
	if d.Type == vfs.TypeDir {
		d.Dirents = newDirents
	}
	for _, p := range oldPages {
		fs.alloc.Release(p)
	}
}
