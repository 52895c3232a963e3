package pmfs

import (
	"chipmunk/internal/bugs"
	"chipmunk/internal/fs/inplace"
	"chipmunk/internal/vfs"
)

// truncAdd records ino on the persistent truncate list before an operation
// that frees its blocks, so recovery can finish an interrupted reclamation.
func (f *FS) truncAdd(ino uint64) {
	base := int64(truncBlock) * BlockSize
	f.PM.Store64(base+truncEntsOff, ino)
	f.PM.Flush(base+truncEntsOff, 8)
	f.PM.Fence()
	f.PM.PersistStore64(base+truncCountOff, 1)
	f.PM.Fence()
}

// truncRemove clears the list once the reclamation completed.
func (f *FS) truncRemove() {
	f.PM.PersistStore64(int64(truncBlock)*BlockSize+truncCountOff, 0)
	f.PM.Fence()
}

// Mount implements vfs.FS: journal recovery, inode-table scan, DRAM
// allocator rebuild, truncate-list replay, orphan GC.
//
// Bug 13 reproduces PMFS's recovery-ordering flaw: the published code
// replayed the truncate list before the DRAM free list existed, and the
// replay's attempt to return blocks dereferenced a null pointer. We model
// the kernel oops as a mount failure.
func (f *FS) Mount() error {
	pm := f.PM
	if pm.Load64(sbMagicOff) != Magic {
		return vfs.Corruptf("bad superblock magic %#x", pm.Load64(sbMagicOff))
	}
	f.totalBlocks = pm.Load64(sbBlocksOff)
	if f.totalBlocks == 0 || int64(f.totalBlocks)*BlockSize > pm.Size() {
		return vfs.Corruptf("superblock block count %d exceeds device", f.totalBlocks)
	}

	if err := f.recoverJournal(); err != nil {
		return err
	}

	if f.Bugs.Has(bugs.PmfsTruncateListNull) {
		// Published ordering: replay the truncate list now. The DRAM free
		// list (f.Pool) has not been rebuilt yet; touching it is the null
		// dereference.
		count := pm.Load64(int64(truncBlock)*BlockSize + truncCountOff)
		if count > 0 {
			return vfs.Corruptf("null pointer dereference: truncate-list replay before free-list rebuild (ino %d)",
				pm.Load64(int64(truncBlock)*BlockSize+truncEntsOff))
		}
	}

	if err := f.Load(InodeCount, f.Pool.Reset(poolStart, f.totalBlocks)); err != nil {
		return err
	}

	// Truncate-list replay (fixed ordering: after the allocator rebuild).
	count := pm.Load64(int64(truncBlock)*BlockSize + truncCountOff)
	if count > truncMaxEnts {
		return vfs.Corruptf("truncate-list count %d out of range", count)
	}
	if count > 0 {
		ino := pm.Load64(int64(truncBlock)*BlockSize + truncEntsOff)
		if d := f.Nodes[ino]; d != nil {
			// Free blocks beyond the committed size and persist the
			// cleaned pointers — finishing the interrupted operation.
			firstDead := int((d.Size + BlockSize - 1) / BlockSize)
			dirty := false
			for i := firstDead; i < inplace.NDirect; i++ {
				if d.Blocks[i] != 0 {
					f.Pool.Release(d.Blocks[i])
					d.Blocks[i] = 0
					dirty = true
				}
			}
			if dirty {
				f.persistInode(d)
				pm.Fence()
			}
		}
		f.truncRemove()
	}

	// Orphan GC: reclaiming in DRAM is enough, a free slot is rewritten
	// whole by the transaction that reuses it.
	for _, d := range f.Orphans(inplace.Placeholder) {
		f.Destroy(d)
	}
	f.mounted = true
	return nil
}
