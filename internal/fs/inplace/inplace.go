// Package inplace is what PMFS and WineFS share. WineFS descends from PMFS
// and keeps its metadata design: 128-byte inodes with direct block
// pointers in an inode table, 64-byte directory-entry slots in directory
// blocks, and every metadata change written in place through a redo
// journal. This package holds the inode and namespace layer, its rebuild
// at mount, PMFS's in-place data write that WineFS's relaxed mode
// inherits (file.go, with its bugs 14&15 and 17&18), and the redo ring
// both journals are made of (ring.go): the record format, the wrapped
// store and load, record append and header read, and the in-place apply.
// What differs between the two — block layout, how many rings and what
// frames a transaction in them, when a ring's head moves, where the block
// allocator looks first, PMFS's truncate list, recovery order, corruption
// messages, WineFS's copy-on-write write, and every other injected bug —
// stays in the host package, behind Host.
package inplace

import (
	"encoding/binary"

	"chipmunk/internal/bugs"
	"chipmunk/internal/persist"
	"chipmunk/internal/vfs"
)

const (
	// BlockSize is the allocation unit.
	BlockSize = 4096
	// InodeSize is the on-PM inode footprint.
	InodeSize = 128
	// NDirect is the number of direct block pointers per inode.
	NDirect = 12
	// MaxFileSize is NDirect blocks.
	MaxFileSize = NDirect * BlockSize
	// RootIno is the root directory inode.
	RootIno = 1

	// Inode field offsets.
	inoValidOff  = 0  // u32: 1 = in use
	inoTypeOff   = 4  // u32: vfs.FileType
	inoNlinkOff  = 8  // u64
	InoSizeOff   = 16 // u64
	InoBlocksOff = 24 // NDirect u64 block pointers (0 = hole)

	// DirentSize is one directory-entry slot: {ino u64 (0 = free), name
	// length u8, name}.
	DirentSize      = 64
	deInoOff        = 0
	deNameLenOff    = 8
	deNameOff       = 9
	direntsPerBlock = BlockSize / DirentSize
)

// Inode is an inode's DRAM copy. A directory entry's Off is its slot.
type Inode struct {
	vfs.Inode
	Blocks [NDirect]uint64

	// orphan marks an inode that lost its last link while a descriptor
	// held it open: its slot keeps its image, with nlink 0, until the last
	// Close reclaims it.
	orphan bool
}

// Zero images invalidate an inode slot or a directory-entry slot.
var (
	zeroInode  = make([]byte, InodeSize)
	zeroDirent = make([]byte, DirentSize)
)

// newInode returns an inode of type typ for ino: a spare of an earlier
// mount, its entry map emptied, or a new one. Only a directory has an
// entry map.
func (f *FS) newInode(ino uint64, typ vfs.FileType) *Inode {
	d, ok := f.Spare(typ)
	if !ok {
		d = new(Inode)
	}
	dirents := d.Dirents
	*d = Inode{Inode: vfs.Inode{Ino: ino, Type: typ}}
	if typ == vfs.TypeDir {
		d.Dirents = vfs.Emptied(dirents)
	}
	return d
}

// Placeholder is the damaged inode Orphans gives a dirent whose inode
// recovery did not find: every use of it is ErrIO.
func Placeholder(ino uint64) *Inode { return &Inode{Inode: vfs.Inode{Ino: ino, Damaged: true}} }

// Tx is a redo-journal transaction: byte-range records, made durable
// together by Commit. Each FS has one, which Begin empties.
type Tx struct {
	Redo
	fs *FS
}

// Commit makes the records durable through the host's journal.
func (t *Tx) Commit() { t.fs.Host.Commit(&t.Redo) }

// Host is what the namespace needs from the file system it belongs to.
type Host interface {
	// Commit journals r's records, then applies them in place.
	Commit(r *Redo)
	// AllocDirBlock and AllocData claim a block of Pool for directory
	// entries and for file data: the host's allocator policy.
	AllocDirBlock() (uint64, error)
	AllocData() (uint64, error)
	// Freeing runs before a transaction after which ino's blocks are
	// freed, and Freed once they are: PMFS's truncate list.
	Freeing(ino uint64)
	Freed()
	// EndOp runs as every mutating system call returns: WineFS spreads
	// system calls over its per-CPU journals.
	EndOp()
}

// FS is the shared half of an in-place file system: the DRAM namespace
// (the embedded Tree), the inode-slot map and the block pool, over the
// inode table at device offset Table. The host embeds it and sets PM,
// Host, Table and Bugs.
type FS struct {
	PM    *persist.PM
	Host  Host
	Table int64
	Bugs  bugs.Set

	vfs.Tree[*Inode]
	Slots *vfs.Bitmap // inode slots, from RootIno on
	Pool  *vfs.Bitmap // data and directory blocks, rebuilt at mount

	tx Tx
}

// Begin opens f's transaction, dropping the records of one left
// uncommitted.
func (f *FS) Begin() *Tx {
	f.tx.Reset()
	f.tx.fs = f
	return &f.tx
}

// Reset empties the DRAM state for a table of n inode slots, with pool as
// the block pool. Slot 0 is never used.
func (f *FS) Reset(n int, pool *vfs.Bitmap) {
	f.Tree.Reset(RootIno)
	f.Slots = f.Slots.Reset(RootIno, uint64(n))
	f.Pool = pool
}

// Rewind empties f for its host's Remount: it keeps what the host set and
// the storage of the tree — its inodes become spares — both bitmaps and the
// transaction's records, and nothing of the last mount. The host's Mount
// resets the pool (Pool.Reset) before Load.
func (f *FS) Rewind() {
	f.Tree.Rewind()
	f.tx.Reset()
	*f = FS{
		PM: f.PM, Host: f.Host, Table: f.Table, Bugs: f.Bugs,
		Tree: f.Tree, Slots: f.Slots.Reset(0, 0), Pool: f.Pool.Reset(0, 0),
		tx: Tx{Redo: f.tx.Redo},
	}
}

// InodeOff returns the device offset of inode slot ino.
func (f *FS) InodeOff(ino uint64) int64 { return f.Table + int64(ino)*InodeSize }

// BlockOff returns the device offset of block b.
func BlockOff(b uint64) int64 { return int64(b) * BlockSize }

// Image encodes d's on-PM inode.
func Image(d *Inode) (buf [InodeSize]byte) {
	binary.LittleEndian.PutUint32(buf[inoValidOff:], 1)
	binary.LittleEndian.PutUint32(buf[inoTypeOff:], uint32(d.Type))
	binary.LittleEndian.PutUint64(buf[inoNlinkOff:], d.Nlink)
	binary.LittleEndian.PutUint64(buf[InoSizeOff:], uint64(d.Size))
	for i, b := range d.Blocks {
		binary.LittleEndian.PutUint64(buf[InoBlocksOff+i*8:], b)
	}
	return buf
}

// SetInode records d's whole inode image in t.
func (f *FS) SetInode(t *Tx, d *Inode) {
	img := Image(d)
	t.Set(f.InodeOff(d.Ino), img[:])
}

// Load rebuilds the DRAM state from the inode table and the directory
// blocks after the host's journal recovery. Every block an inode points to
// must lie in pool and is claimed there; a block claimed twice is
// corruption.
func (f *FS) Load(slots int, pool *vfs.Bitmap) error {
	f.Reset(slots, pool)
	for ino := uint64(1); ino < uint64(slots); ino++ {
		img := f.PM.Load(f.InodeOff(ino), InodeSize)
		if binary.LittleEndian.Uint32(img[inoValidOff:]) != 1 {
			continue
		}
		d := f.newInode(ino, vfs.FileType(binary.LittleEndian.Uint32(img[inoTypeOff:])))
		d.Nlink = binary.LittleEndian.Uint64(img[inoNlinkOff:])
		d.Size = int64(binary.LittleEndian.Uint64(img[InoSizeOff:]))
		for i := range d.Blocks {
			d.Blocks[i] = binary.LittleEndian.Uint64(img[InoBlocksOff+i*8:])
		}
		f.Slots.Claim(ino)
		f.Nodes[ino] = d
	}
	root := f.Nodes[RootIno]
	if root == nil || root.Type != vfs.TypeDir {
		return vfs.Corruptf("root inode missing or not a directory")
	}

	// Walk the inodes in slot order, not map order: when an image holds
	// two faults, the one a mount reports is decided by the image.
	for ino, ok := f.Slots.NextUsed(RootIno); ok; ino, ok = f.Slots.NextUsed(ino + 1) {
		d := f.Nodes[ino]
		for i, b := range d.Blocks {
			if b == 0 {
				continue
			}
			if !pool.Claim(b) {
				if pool.Used(b) {
					return vfs.Corruptf("block %d referenced twice", b)
				}
				return vfs.Corruptf("inode %d block[%d]=%d out of range", d.Ino, i, b)
			}
		}
	}

	for ino, ok := f.Slots.NextUsed(RootIno); ok; ino, ok = f.Slots.NextUsed(ino + 1) {
		d := f.Nodes[ino]
		if d.Type != vfs.TypeDir {
			continue
		}
		for _, b := range d.Blocks {
			if b == 0 {
				continue
			}
			for s := 0; s < direntsPerBlock; s++ {
				off := BlockOff(b) + int64(s)*DirentSize
				slot := f.PM.Load(off, DirentSize)
				child := binary.LittleEndian.Uint64(slot[deInoOff:])
				if child == 0 {
					continue
				}
				nameLen := int(slot[deNameLenOff])
				if child >= uint64(slots) || nameLen == 0 || nameLen > DirentSize-deNameOff {
					return vfs.Corruptf("bad dirent in block %d slot %d", b, s)
				}
				d.Dirents[string(slot[deNameOff:deNameOff+nameLen])] = vfs.Dirent{Ino: child, Off: off}
			}
		}
	}
	return nil
}

// Destroy frees an inode's blocks, slot and DRAM state. Its on-PM slot is
// the caller's business.
func (f *FS) Destroy(n *Inode) {
	for _, b := range n.Blocks {
		if b != 0 {
			f.Pool.Release(b)
		}
	}
	f.Slots.Release(n.Ino)
	f.Remove(n.Ino)
}
