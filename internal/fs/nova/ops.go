package nova

import (
	"chipmunk/internal/bugs"
	"chipmunk/internal/vfs"
)

// Create implements vfs.FS: O_CREAT|O_EXCL file creation.
//
// Order: initialize the new inode (fenced), append the dentry-add entry to
// the parent log, publish the parent tail. The file becomes visible
// atomically at the tail publish; a crash earlier leaves an orphan inode
// that mount-time GC reclaims. Bug 2 omits the flush of the inode
// initialization, so the dentry can point at an all-zero inode slot.
func (f *FS) Create(path string) (vfs.FD, error) {
	p, name, err := f.Vacant(path)
	if err != nil {
		return -1, err
	}
	ino, err := f.ialloc.Lowest()
	if err != nil {
		return -1, err
	}
	d := f.newDnode(ino, vfs.TypeRegular)
	d.Nlink = 1
	f.writeInodeInit(d, !f.has(bugs.NovaInodeInitNoFlush))

	entryOff, err := f.appendEntry(p, entry{
		typ: etDentryAdd, ino: ino, ftype: vfs.TypeRegular, name: name,
	}, false, false)
	if err != nil {
		f.ialloc.Release(ino)
		return -1, err
	}
	f.Nodes[ino] = d
	p.Dirents[name] = vfs.Dirent{Ino: ino, Off: entryOff}
	return f.Descs.Open(ino, d), nil
}

// Mkdir implements vfs.FS. The parent's tail and nlink change together, so
// the publish is journaled.
func (f *FS) Mkdir(path string) error {
	p, name, err := f.Vacant(path)
	if err != nil {
		return err
	}
	ino, err := f.ialloc.Lowest()
	if err != nil {
		return err
	}
	headPage, err := f.alloc.Next()
	if err != nil {
		f.ialloc.Release(ino)
		return err
	}
	f.pm.MemsetNT(pageOff(headPage), 0, PageSize)
	f.pm.Fence()
	child := f.newDnode(ino, vfs.TypeDir)
	child.Nlink, child.head, child.tail = 2, headPage, pageOff(headPage)
	child.logPages = append(child.logPages, headPage)
	f.writeInodeInit(child, !f.has(bugs.NovaInodeInitNoFlush))

	entryOff, newTail, err := f.writeEntryNoPublish(p, p.tail, entry{
		typ: etDentryAdd, ino: ino, ftype: vfs.TypeDir, name: name,
	}, false)
	if err != nil {
		f.alloc.Release(headPage)
		f.ialloc.Release(ino)
		return err
	}
	p.tail = newTail
	p.Nlink++
	t := f.beginTx()
	t.addInode(p, false)
	t.commit()

	f.Nodes[ino] = child
	p.Dirents[name] = vfs.Dirent{Ino: ino, Off: entryOff}
	return nil
}

// Link implements vfs.FS.
//
// Fixed path: the new dentry and the link-count bump are journaled
// together. Bug 6 persists the incremented link count in place before the
// dentry is durable; bug 3 additionally publishes the directory tail before
// the dentry bytes.
func (f *FS) Link(oldPath, newPath string) error {
	n, err := f.Lookup(oldPath)
	if err != nil {
		return err
	}
	if n.Type == vfs.TypeDir {
		return vfs.ErrIsDir
	}
	p, name, err := f.Vacant(newPath)
	if err != nil {
		return err
	}

	if f.has(bugs.NovaLinkCountEarly) {
		// In-place optimization: bump nlink first, add the name after.
		// Checking that the in-place update is safe requires re-reading the
		// inode's most recent log page from media — the extra read that
		// made the journalled fix 7% FASTER in the paper's microbenchmark
		// (§5.1 Observation 2).
		if n.head != 0 && len(n.logPages) > 0 {
			lastPage := n.logPages[len(n.logPages)-1]
			_ = f.pm.Load(pageOff(lastPage), PageSize/2)
		}
		_ = f.pm.Load(inodeOff(n.Ino), 128)
		n.Nlink++
		f.syncInode(n, true)
		entryOff, err := f.appendEntry(p, entry{
			typ: etDentryAdd, ino: n.Ino, ftype: n.Type, name: name,
		}, true, false)
		if err != nil {
			n.Nlink--
			f.syncInode(n, true)
			return err
		}
		p.Dirents[name] = vfs.Dirent{Ino: n.Ino, Off: entryOff}
		f.endOp()
		return nil
	}

	entryOff, newTail, err := f.writeEntryNoPublish(p, p.tail, entry{
		typ: etDentryAdd, ino: n.Ino, ftype: n.Type, name: name,
	}, false)
	if err != nil {
		return err
	}
	p.tail = newTail
	n.Nlink++
	t := f.beginTx()
	t.addInode(p, true)
	t.addInode(n, true)
	t.commit()
	p.Dirents[name] = vfs.Dirent{Ino: n.Ino, Off: entryOff}
	f.endOp()
	return nil
}

// Unlink implements vfs.FS. The dentry removal and the link-count decrement
// are journaled together; under bug 3 the listed fast path appends the
// remove entry with the tail-first ordering instead.
func (f *FS) Unlink(path string) error {
	r, err := f.Removable(path, false)
	if err != nil {
		return err
	}
	p, name, n := r.Dir, r.Name, r.Node
	if n.conflicted {
		// Bug 10's consequence: the replica mismatch makes deletion fail.
		return vfs.ErrIO
	}

	if f.has(bugs.NovaEntryAfterTail) {
		// Fast path: un-journaled remove entry with risky ordering.
		if _, err := f.appendEntry(p, entry{
			typ: etDentryRemove, ino: n.Ino, name: name,
		}, true, true); err != nil {
			return err
		}
		n.Nlink--
		f.syncInode(n, false)
	} else {
		_, newTail, err := f.writeEntryNoPublish(p, p.tail, entry{
			typ: etDentryRemove, ino: n.Ino, name: name,
		}, true)
		if err != nil {
			return err
		}
		p.tail = newTail
		n.Nlink--
		t := f.beginTx()
		t.addInode(p, false)
		t.addInode(n, false)
		t.commit()
	}

	delete(p.Dirents, name)
	f.Descs.Unlinked(n.Ino, n.Nlink, f.reclaim)
	f.endOp()
	f.maybeGC(p)
	return nil
}

// reclaim destroys an inode with no links and no open descriptors (the
// vfs.FDTable lifetime rule), as real NOVA does at inode eviction.
func (f *FS) reclaim(ino uint64) { f.destroyInode(f.Nodes[ino]) }

// destroyInode frees n: PM valid flag cleared, data and log pages returned
// to the DRAM allocator.
func (f *FS) destroyInode(n *dnode) {
	f.invalidateInode(n.Ino)
	for _, pp := range n.pages {
		f.alloc.Release(pp)
	}
	for _, lp := range n.logPages {
		f.alloc.Release(lp)
	}
	if n.head != 0 && len(n.logPages) == 0 {
		f.releaseLogChain(n.head)
	}
	f.ialloc.Release(n.Ino)
	f.Remove(n.Ino)
}

// releaseLogChain frees a log-page chain by following on-PM links (used
// when the DRAM page list is not populated).
func (f *FS) releaseLogChain(head uint64) {
	seen := map[uint64]bool{}
	for p := head; p != 0 && !seen[p]; {
		seen[p] = true
		next := f.pm.Load64(pageOff(p) + logNextOff)
		f.alloc.Release(p)
		p = next
	}
}

// Rmdir implements vfs.FS.
func (f *FS) Rmdir(path string) error {
	r, err := f.Removable(path, true)
	if err != nil {
		return err
	}
	p, name, n := r.Dir, r.Name, r.Node
	if n.conflicted {
		return vfs.ErrIO
	}

	_, newTail, err := f.writeEntryNoPublish(p, p.tail, entry{
		typ: etDentryRemove, ino: n.Ino, name: name,
	}, true)
	if err != nil {
		return err
	}
	p.tail = newTail
	p.Nlink--
	t := f.beginTx()
	t.addInode(p, false)
	t.set(inodeOff(n.Ino), 0) // clear child valid+type words
	if f.fortis {
		t.set(inodeOff(n.Ino)+inoReplicaOff, 0)
	}
	t.commit()

	delete(p.Dirents, name)
	n.Nlink = 0
	f.Descs.Unlinked(n.Ino, 0, f.reclaim)
	f.endOp()
	f.maybeGC(p)
	return nil
}

// Rename implements vfs.FS.
//
// Fixed path: the dentry-remove in the old directory, the dentry-add in the
// new directory, any victim link-count change, and directory nlink updates
// are all published by one journaled transaction.
//
// Bug 4 (same-directory path): the old dentry's log entry is invalidated in
// place before the add is published — a crash between loses both names.
// Bug 5 (cross-directory path): the add is published first and the old
// dentry is invalidated in place afterwards — a crash between leaves both.
func (f *FS) Rename(oldPath, newPath string) error {
	from, to, err := f.Move(oldPath, newPath)
	if err != nil || from.Node == nil {
		return err
	}
	op, oname, ode, n := from.Dir, from.Name, from.Dirent, from.Node
	np, nname, victim := to.Dir, to.Name, to.Node
	if victim != nil && victim.conflicted {
		return vfs.ErrIO
	}

	sameDir := op == np
	switch {
	case sameDir && f.has(bugs.NovaRenameInPlaceDelete):
		err = f.renameBuggyDeleteFirst(op, oname, ode, np, nname, n, victim)
	case !sameDir && f.has(bugs.NovaRenameOldSurvives):
		err = f.renameBuggyAddFirst(op, oname, ode, np, nname, n, victim)
	default:
		err = f.renameJournaled(op, oname, np, nname, n, victim)
	}
	if err != nil {
		return err
	}
	f.endOp()
	f.maybeGC(op)
	if np != op {
		f.maybeGC(np)
	}
	return nil
}

// renameJournaled is the fixed rename: everything in one transaction.
func (f *FS) renameJournaled(op *dnode, oname string, np *dnode, nname string, n, victim *dnode) error {
	opTail := op.tail
	_, opTail, err := f.writeEntryNoPublish(op, opTail, entry{
		typ: etDentryRemove, ino: n.Ino, name: oname,
	}, false)
	if err != nil {
		return err
	}
	npTail := np.tail
	if op == np {
		npTail = opTail
	}
	addOff, npTail, err := f.writeEntryNoPublish(np, npTail, entry{
		typ: etDentryAdd, ino: n.Ino, ftype: n.Type, name: nname,
	}, false)
	if err != nil {
		return err
	}

	// Update DRAM fields that feed the inode images, then journal.
	if op == np {
		op.tail = npTail
	} else {
		op.tail = opTail
		np.tail = npTail
	}
	if n.Type == vfs.TypeDir && op != np {
		op.Nlink--
		np.Nlink++
	}
	if victim != nil {
		if victim.Type == vfs.TypeDir {
			np.Nlink--
			victim.Nlink = 0
		} else {
			victim.Nlink--
		}
	}

	t := f.beginTx()
	t.addInode(op, true)
	if np != op {
		t.addInode(np, true)
	}
	if victim != nil {
		if victim.Type == vfs.TypeDir {
			t.set(inodeOff(victim.Ino), 0)
			if f.fortis {
				t.set(inodeOff(victim.Ino)+inoReplicaOff, 0)
			}
		} else {
			t.addInode(victim, true)
		}
	}
	t.commit()

	f.renameApplyDRAM(op, oname, np, nname, n, victim, addOff)
	return nil
}

// renameBuggyDeleteFirst is bug 4: invalidate the old dentry in place, then
// publish the new one.
func (f *FS) renameBuggyDeleteFirst(op *dnode, oname string, ode vfs.Dirent, np *dnode, nname string, n, victim *dnode) error {
	f.invalidateEntry(ode.Off)
	addOff, err := f.appendEntry(np, entry{
		typ: etDentryAdd, ino: n.Ino, ftype: n.Type, name: nname,
	}, true, false)
	if err != nil {
		return err
	}
	f.renameFinishVictim(np, n, victim, op)
	f.renameApplyDRAM(op, oname, np, nname, n, victim, addOff)
	return nil
}

// renameBuggyAddFirst is bug 5: publish the new dentry, then invalidate the
// old one in place.
func (f *FS) renameBuggyAddFirst(op *dnode, oname string, ode vfs.Dirent, np *dnode, nname string, n, victim *dnode) error {
	addOff, err := f.appendEntry(np, entry{
		typ: etDentryAdd, ino: n.Ino, ftype: n.Type, name: nname,
	}, true, false)
	if err != nil {
		return err
	}
	f.invalidateEntry(ode.Off)
	f.renameFinishVictim(np, n, victim, op)
	f.renameApplyDRAM(op, oname, np, nname, n, victim, addOff)
	return nil
}

// renameFinishVictim persists the leftover metadata words the buggy rename
// paths update outside any transaction.
func (f *FS) renameFinishVictim(np *dnode, n, victim *dnode, op *dnode) {
	if n.Type == vfs.TypeDir && op != np {
		op.Nlink--
		np.Nlink++
		f.syncInode(op, true)
		f.syncInode(np, true)
	}
	if victim != nil {
		if victim.Type == vfs.TypeDir {
			np.Nlink--
			victim.Nlink = 0
			f.syncInode(np, true)
			f.invalidateInode(victim.Ino)
		} else {
			victim.Nlink--
			f.syncInode(victim, true)
		}
	}
}

// renameApplyDRAM applies the rename to the DRAM maps and frees a victim
// whose last link went away.
func (f *FS) renameApplyDRAM(op *dnode, oname string, np *dnode, nname string, n, victim *dnode, addOff int64) {
	delete(op.Dirents, oname)
	np.Dirents[nname] = vfs.Dirent{Ino: n.Ino, Off: addOff}
	if victim != nil {
		f.Descs.Unlinked(victim.Ino, victim.Nlink, f.reclaim)
	}
}

// endOp completes deferred work at system-call end: the lazy Fortis replica
// copies (bug 10) and the postponed entry checksums (bug 9).
func (f *FS) endOp() {
	f.flushLazyReplicas()
	f.flushDeferredCsums()
}
