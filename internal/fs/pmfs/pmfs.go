// Package pmfs implements a PMFS-like PM file system [Dulloor et al.,
// EuroSys '14]: in-place metadata updates protected by a small journal,
// direct block pointers in the inode, directory entries stored in directory
// data blocks, a persistent truncate list for crash-safe block reclamation,
// and a DRAM-only free-block list rebuilt at mount.
//
// Unlike NOVA, PMFS writes file data in place, so data writes are not
// crash-atomic (Caps.AtomicWrite = false). Metadata operations are
// synchronous and atomic through the journal.
//
// Injected bugs (Table 1): 13 (truncate-list replay before the allocator is
// rebuilt), 14&15 (final write extent not flushed), 16 (journal replay
// walks out of bounds), 17&18 (non-temporal tail of unaligned writes not
// fenced).
package pmfs

import (
	"chipmunk/internal/bugs"
	"chipmunk/internal/fs/inplace"
	"chipmunk/internal/persist"
	"chipmunk/internal/vfs"
)

const (
	// BlockSize is the allocation unit.
	BlockSize = inplace.BlockSize
	// MaxFileSize is what the inode's direct block pointers reach.
	MaxFileSize = inplace.MaxFileSize
	// Magic identifies a formatted PMFS image.
	Magic = 0x504D4653 // "PMFS"

	// Block layout.
	sbBlock        = 0
	journalBlock   = 1
	truncBlock     = 2
	inodeTblBlock  = 3
	inodeTblBlocks = 8
	poolStart      = inodeTblBlock + inodeTblBlocks

	// InodeCount is the number of inode slots.
	InodeCount = inodeTblBlocks * (BlockSize / inplace.InodeSize)

	// Superblock offsets.
	sbMagicOff  = 0
	sbBlocksOff = 8

	// Truncate list block: count u64 at 0, then {ino u64, size u64} pairs.
	truncCountOff = 0
	truncEntsOff  = 8
	truncMaxEnts  = (BlockSize - truncEntsOff) / 16
)

// FS is the PMFS instance: the in-place inode and namespace layer it
// shares with WineFS, over PMFS's own journal, truncate list and
// allocator.
type FS struct {
	inplace.FS

	// totalBlocks bounds Pool, the DRAM-only free-block list, rebuilt at
	// mount by scanning inode block pointers and handed out next fit. Bug
	// 13 is the truncate-list replay touching it before that rebuild.
	totalBlocks uint64
	mounted     bool

	ring inplace.Ring // the metadata journal
}

// New creates a PMFS instance on pm with the given injected bug set.
func New(pm *persist.PM, set bugs.Set) *FS {
	f := &FS{ring: inplace.Ring{PM: pm, Base: journalBlock * BlockSize, Size: jAreaSize}}
	f.PM, f.Host, f.Table, f.Bugs = pm, (*host)(f), inodeTblBlock*BlockSize, set
	return f
}

// Remount implements vfs.Remounter: the shared layer rewinds, keeping its
// storage, the journal ring forgets its tail, and the image mounts again.
func (f *FS) Remount() error {
	f.Rewind()
	*f = FS{FS: f.FS, ring: inplace.Ring{PM: f.PM, Base: f.ring.Base, Size: f.ring.Size}}
	return f.Mount()
}

// host is FS as the shared layer's inplace.Host: blocks are handed out
// next fit, and deletions and shrinks are bracketed by the truncate list.
type host FS

func (h *host) Commit(r *inplace.Redo)         { (*FS)(h).commit(r) }
func (h *host) AllocDirBlock() (uint64, error) { return h.Pool.Next() }
func (h *host) AllocData() (uint64, error)     { return h.Pool.Next() }
func (h *host) Freeing(ino uint64)             { (*FS)(h).truncAdd(ino) }
func (h *host) Freed()                         { (*FS)(h).truncRemove() }
func (h *host) EndOp()                         {}

// Caps implements vfs.FS.
func (f *FS) Caps() vfs.Caps {
	return vfs.Caps{Name: "pmfs", Strong: true, AtomicWrite: false, SyncDataWrites: true}
}

// Mkfs implements vfs.FS.
func (f *FS) Mkfs() error {
	f.totalBlocks = uint64(f.PM.Size()) / BlockSize
	if f.totalBlocks < poolStart+8 {
		return vfs.ErrNoSpace
	}
	pm := f.PM
	pm.MemsetNT(0, 0, poolStart*BlockSize)
	pm.Fence()

	f.Reset(InodeCount, f.Pool.Reset(poolStart, f.totalBlocks))
	f.Slots.Claim(inplace.RootIno)
	f.ring.Format()
	pm.Fence()

	root := &inplace.Inode{Inode: vfs.Inode{Ino: inplace.RootIno, Type: vfs.TypeDir, Nlink: 2, Dirents: map[string]vfs.Dirent{}}}
	f.persistInode(root)
	pm.Fence()
	f.Nodes[inplace.RootIno] = root

	pm.Store64(sbMagicOff, Magic)
	pm.Store64(sbBlocksOff, f.totalBlocks)
	pm.Flush(0, 16)
	pm.Fence()
	f.mounted = true
	return nil
}

// persistInode writes d's full on-PM inode image (flushed, not fenced).
func (f *FS) persistInode(d *inplace.Inode) {
	img := inplace.Image(d)
	f.PM.Store(f.InodeOff(d.Ino), img[:])
	f.PM.Flush(f.InodeOff(d.Ino), inplace.InodeSize)
}

// Unmount implements vfs.FS.
func (f *FS) Unmount() error {
	f.mounted = false
	f.Drop()
	f.Pool = nil
	return nil
}

var (
	_ vfs.FS        = (*FS)(nil)
	_ vfs.Remounter = (*FS)(nil)
)
