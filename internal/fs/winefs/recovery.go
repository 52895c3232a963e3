package winefs

import (
	"chipmunk/internal/fs/inplace"
	"chipmunk/internal/vfs"
)

// Mount implements vfs.FS: per-CPU journal recovery (merged by transaction
// id), inode scan, allocator rebuild, orphan GC.
func (f *FS) Mount() error {
	pm := f.PM
	if pm.Load64(sbMagicOff) != Magic {
		return vfs.Corruptf("bad superblock magic %#x", pm.Load64(sbMagicOff))
	}
	f.totalBlocks = pm.Load64(sbBlocksOff)
	if f.totalBlocks == 0 || int64(f.totalBlocks)*BlockSize > pm.Size() {
		return vfs.Corruptf("superblock block count %d exceeds device", f.totalBlocks)
	}

	if err := f.recoverJournals(); err != nil {
		return err
	}
	if err := f.recoverMiniJournal(); err != nil {
		return err
	}

	if err := f.Load(InodeCount, f.Pool.Reset(poolStart, f.totalBlocks)); err != nil {
		return err
	}
	// Orphan GC clears each orphan's slot on PM as it reclaims it.
	for _, d := range f.Orphans(inplace.Placeholder) {
		f.PM.PersistStore64(f.InodeOff(d.Ino), 0)
		f.PM.Fence()
		f.Destroy(d)
	}
	f.mounted = true
	return nil
}
