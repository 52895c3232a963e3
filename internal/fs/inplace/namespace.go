package inplace

import (
	"encoding/binary"

	"chipmunk/internal/vfs"
)

// Close implements vfs.FS.
func (f *FS) Close(fd vfs.FD) error { return f.Descs.Close(fd, f.reclaim) }

// Fsync implements vfs.FS: every operation is synchronous, so this only
// validates fd.
func (f *FS) Fsync(fd vfs.FD) error {
	_, err := f.Descs.Get(fd)
	return err
}

// Sync implements vfs.FS.
func (f *FS) Sync() error { return nil }

// direntImage encodes a directory-entry slot.
func direntImage(ino uint64, name string) (b [DirentSize]byte) {
	binary.LittleEndian.PutUint64(b[deInoOff:], ino)
	b[deNameLenOff] = byte(len(name))
	copy(b[deNameOff:], name)
	return b
}

// findFreeSlot locates a free dirent slot in p's blocks, allocating a fresh
// directory block if needed and publishing its pointer with t.
func (f *FS) findFreeSlot(p *Inode, t *Tx) (int64, error) {
	for _, b := range p.Blocks {
		if b == 0 {
			continue
		}
		for s := 0; s < direntsPerBlock; s++ {
			off := BlockOff(b) + int64(s)*DirentSize
			if f.PM.Load64(off) == 0 && !slotPending(p, off) {
				return off, nil
			}
		}
	}
	idx := -1
	for i, b := range p.Blocks {
		if b == 0 {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0, vfs.ErrNoSpace
	}
	nb, err := f.Host.AllocDirBlock()
	if err != nil {
		return 0, err
	}
	f.PM.MemsetNT(BlockOff(nb), 0, BlockSize)
	f.PM.Fence()
	p.Blocks[idx] = nb
	f.SetInode(t, p)
	return BlockOff(nb), nil
}

// slotPending reports whether a slot is being consumed by the current
// operation's DRAM state (two adds in one tx must not collide).
func slotPending(p *Inode, off int64) bool {
	for _, ref := range p.Dirents {
		if ref.Off == off {
			return true
		}
	}
	return false
}

// Create implements vfs.FS.
func (f *FS) Create(path string) (vfs.FD, error) {
	defer f.Host.EndOp()
	p, name, err := f.Vacant(path)
	if err != nil {
		return -1, err
	}
	ino, err := f.Slots.Lowest()
	if err != nil {
		return -1, err
	}
	d := f.newInode(ino, vfs.TypeRegular)
	d.Nlink = 1
	// The inode image is journaled together with the dirent: redo replay
	// re-applies transactions in order, so every write that can overlap a
	// journaled target must itself be journaled (inode slots are reused).
	t := f.Begin()
	f.SetInode(t, d)
	slot, err := f.findFreeSlot(p, t)
	if err != nil {
		f.Slots.Release(ino)
		return -1, err
	}
	de := direntImage(ino, name)
	t.Set(slot, de[:])
	t.Commit()

	f.Nodes[ino] = d
	p.Dirents[name] = vfs.Dirent{Ino: ino, Off: slot}
	return f.Descs.Open(ino, d), nil
}

// Mkdir implements vfs.FS.
func (f *FS) Mkdir(path string) error {
	defer f.Host.EndOp()
	p, name, err := f.Vacant(path)
	if err != nil {
		return err
	}
	ino, err := f.Slots.Lowest()
	if err != nil {
		return err
	}
	d := f.newInode(ino, vfs.TypeDir)
	d.Nlink = 2
	p.Nlink++
	t := f.Begin()
	f.SetInode(t, d)
	slot, err := f.findFreeSlot(p, t)
	if err != nil {
		p.Nlink--
		f.Slots.Release(ino)
		return err
	}
	de := direntImage(ino, name)
	t.Set(slot, de[:])
	f.SetInode(t, p)
	t.Commit()

	f.Nodes[ino] = d
	p.Dirents[name] = vfs.Dirent{Ino: ino, Off: slot}
	return nil
}

// Link implements vfs.FS.
func (f *FS) Link(oldPath, newPath string) error {
	defer f.Host.EndOp()
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
	n.Nlink++
	t := f.Begin()
	slot, err := f.findFreeSlot(p, t)
	if err != nil {
		n.Nlink--
		return err
	}
	de := direntImage(n.Ino, name)
	t.Set(slot, de[:])
	f.SetInode(t, n)
	t.Commit()
	p.Dirents[name] = vfs.Dirent{Ino: n.Ino, Off: slot}
	return nil
}

// Unlink implements vfs.FS. Dropping the last link frees the inode's
// blocks, inside the host's Freeing/Freed bracket.
func (f *FS) Unlink(path string) error {
	defer f.Host.EndOp()
	r, err := f.Removable(path, false)
	if err != nil {
		return err
	}
	n := r.Node
	lastLink := n.Nlink == 1
	if lastLink {
		f.Host.Freeing(n.Ino)
	}
	n.Nlink--
	t := f.Begin()
	t.Set(r.Off, zeroDirent)
	f.dropLink(t, n)
	t.Commit()
	delete(r.Dir.Dirents, r.Name)
	f.Descs.Unlinked(n.Ino, n.Nlink, f.reclaim)
	if lastLink {
		f.Host.Freed()
	}
	return nil
}

// dropLink journals n's slot after n lost a link. Once no link and no
// descriptor reaches n its slot is invalidated here, inside the
// transaction, so redo replay stays ordered with respect to inode-slot
// reuse; the lifetime rule then reclaims n right after the commit. An n
// that a descriptor still holds keeps its image, with nlink 0, until its
// last Close.
func (f *FS) dropLink(t *Tx, n *Inode) {
	if n.Nlink == 0 && f.Descs.Opens(n.Ino) == 0 {
		t.Set(f.InodeOff(n.Ino), zeroInode)
		return
	}
	n.orphan = n.Nlink == 0
	f.SetInode(t, n)
}

// reclaim frees an inode with no links and no descriptors left (the
// vfs.FDTable lifetime rule). An orphan's slot outlived its last link, so
// it is invalidated now; a crash before that leaves it to the host's
// orphan pass at mount.
func (f *FS) reclaim(ino uint64) {
	n := f.Nodes[ino]
	if n.orphan {
		t := f.Begin()
		t.Set(f.InodeOff(ino), zeroInode)
		t.Commit()
	}
	f.Destroy(n)
}

// Rmdir implements vfs.FS.
func (f *FS) Rmdir(path string) error {
	defer f.Host.EndOp()
	r, err := f.Removable(path, true)
	if err != nil {
		return err
	}
	p, n := r.Dir, r.Node
	f.Host.Freeing(n.Ino)
	p.Nlink--
	n.Nlink = 0
	t := f.Begin()
	t.Set(r.Off, zeroDirent)
	f.SetInode(t, p)
	f.dropLink(t, n)
	t.Commit()
	delete(p.Dirents, r.Name)
	f.Descs.Unlinked(n.Ino, 0, f.reclaim)
	f.Host.Freed()
	return nil
}

// Rename implements vfs.FS. All metadata changes go through one journal
// transaction; a victim that dies frees its blocks inside the host's
// Freeing/Freed bracket, like unlink.
func (f *FS) Rename(oldPath, newPath string) error {
	defer f.Host.EndOp()
	from, to, err := f.Move(oldPath, newPath)
	if err != nil || from.Node == nil {
		return err
	}
	op, np, n, victim := from.Dir, to.Dir, from.Node, to.Node
	victimDies := victim != nil && (victim.Type == vfs.TypeDir || victim.Nlink == 1)
	if victimDies {
		f.Host.Freeing(victim.Ino)
	}

	t := f.Begin()
	// Clear the old slot; write (or overwrite) the new one.
	t.Set(from.Off, zeroDirent)
	slot := to.Off
	if victim == nil {
		if slot, err = f.findFreeSlot(np, t); err != nil {
			return err
		}
	}
	de := direntImage(n.Ino, to.Name)
	t.Set(slot, de[:])
	if n.Type == vfs.TypeDir && op != np {
		op.Nlink--
		np.Nlink++
		f.SetInode(t, op)
		f.SetInode(t, np)
	}
	if victim != nil {
		if victim.Type == vfs.TypeDir {
			np.Nlink--
			victim.Nlink = 0
			f.SetInode(t, np)
		} else {
			victim.Nlink--
		}
		f.dropLink(t, victim)
	}
	t.Commit()

	delete(op.Dirents, from.Name)
	np.Dirents[to.Name] = vfs.Dirent{Ino: n.Ino, Off: slot}
	if victim != nil {
		f.Descs.Unlinked(victim.Ino, victim.Nlink, f.reclaim)
	}
	if victimDies {
		f.Host.Freed()
	}
	return nil
}
