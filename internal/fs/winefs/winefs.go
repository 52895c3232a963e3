// Package winefs implements a WineFS-like PM file system [Kadekodi et al.,
// SOSP '21]. WineFS descends from PMFS — in-place metadata under a redo
// journal, direct block pointers, dirent slots in directory blocks — and
// adds the features the paper highlights:
//
//   - per-CPU journals (one redo log per CPU, merged by transaction id at
//     recovery) for scalability;
//   - an alignment-aware allocator that serves metadata from the top of the
//     pool and data from the bottom, preserving huge-page-aligned extents;
//   - a strict mode in which data writes are copy-on-write and published
//     atomically by the journaled block-pointer update.
//
// Injected bugs (Table 1): 14&15 (data fence missing before the publish),
// 17&18 (unaligned NT tail not fenced), 19 (recovery reads only the
// mounting CPU's journal), 20 (strict mode falls back to an in-place,
// non-atomic write for sub-cache-line-aligned overwrites).
package winefs

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
	// Magic identifies a formatted WineFS image.
	Magic = 0x57494E45 // "WINE"
	// NumCPUs is the size of the per-CPU journal array.
	NumCPUs = 4

	// Block layout: superblock, NumCPUs journal blocks, inode table, pool.
	sbBlock        = 0
	journalBlock0  = 1
	inodeTblBlock  = journalBlock0 + NumCPUs
	inodeTblBlocks = 8
	poolStart      = inodeTblBlock + inodeTblBlocks

	// InodeCount is the number of inode slots.
	InodeCount = inodeTblBlocks * (BlockSize / inplace.InodeSize)

	sbMagicOff  = 0
	sbBlocksOff = 8
	// sbReclaimOff holds the reclaim epoch: every transaction with a txid
	// below it is durably applied in place, and recovery must skip it.
	sbReclaimOff = 16
)

// Mode selects WineFS's crash-consistency mode.
type Mode int

const (
	// Strict makes data writes crash-atomic via copy-on-write.
	Strict Mode = iota
	// Relaxed writes data in place, PMFS-style (not atomic).
	Relaxed
)

// FS is the WineFS instance: the in-place inode and namespace layer it
// shares with PMFS, over WineFS's per-CPU journals and aligned allocator.
type FS struct {
	inplace.FS
	mode Mode

	// totalBlocks bounds Pool, the DRAM-only block pool, rebuilt at mount.
	// Data blocks come from its bottom and metadata blocks from its top,
	// so long runs of huge-page-aligned free space survive metadata churn.
	totalBlocks uint64
	mounted     bool

	// The per-CPU journals and the global tx counter.
	rings [NumCPUs]inplace.Ring
	txid  uint64
	opSeq uint64 // drives the CPU assignment of operations

	// replay and txs are recovery's parse of the journal windows, kept for
	// the next mount: every record in one Redo, and each transaction's
	// txid and records.
	replay inplace.Redo
	txs    []parsedTx
}

// host is FS as the shared layer's inplace.Host: directory blocks come
// from the metadata end of the pool and data blocks from the other, and
// every mutating system call moves on to the next CPU's journal.
type host FS

func (h *host) Commit(r *inplace.Redo)         { (*FS)(h).commit(r) }
func (h *host) AllocDirBlock() (uint64, error) { return h.Pool.Highest() }
func (h *host) AllocData() (uint64, error)     { return h.Pool.Lowest() }
func (h *host) Freeing(uint64)                 {}
func (h *host) Freed()                         {}
func (h *host) EndOp()                         { (*FS)(h).nextOp() }

// Option configures the FS.
type Option func(*FS)

// WithMode selects strict or relaxed mode (default strict).
func WithMode(m Mode) Option { return func(f *FS) { f.mode = m } }

// New creates a WineFS instance with the given injected bug set.
func New(pm *persist.PM, set bugs.Set, opts ...Option) *FS {
	f := &FS{mode: Strict}
	f.PM, f.Host, f.Table, f.Bugs = pm, (*host)(f), inodeTblBlock*BlockSize, set
	for c := range f.rings {
		f.rings[c] = inplace.Ring{PM: pm, Base: int64(journalBlock0+c) * BlockSize, Size: jAreaSize}
	}
	for _, o := range opts {
		o(f)
	}
	return f
}

// Remount implements vfs.Remounter: the shared layer rewinds, keeping its
// storage, the rings forget their tails, the transaction counters restart,
// and the image mounts again with recovery's parse storage kept.
func (f *FS) Remount() error {
	f.Rewind()
	rings := f.rings
	for c := range rings {
		rings[c].Tail = 0
	}
	f.replay.Reset()
	*f = FS{FS: f.FS, mode: f.mode, rings: rings, replay: f.replay, txs: f.txs[:0]}
	return f.Mount()
}

// Caps implements vfs.FS.
func (f *FS) Caps() vfs.Caps {
	return vfs.Caps{
		Name:           "winefs",
		Strong:         true,
		AtomicWrite:    f.mode == Strict,
		SyncDataWrites: true,
	}
}

// curCPU returns the CPU the current operation runs on. Operations are
// spread round-robin across CPUs, exercising every journal.
func (f *FS) curCPU() int { return int(f.opSeq % NumCPUs) }

// nextOp advances the simulated CPU assignment; called once per mutating
// system call.
func (f *FS) nextOp() { f.opSeq++ }

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
	f.txid = 1
	for c := range f.rings {
		f.rings[c].Format()
	}
	pm.Fence()

	root := &inplace.Inode{Inode: vfs.Inode{Ino: inplace.RootIno, Type: vfs.TypeDir, Nlink: 2, Dirents: map[string]vfs.Dirent{}}}
	img := inplace.Image(root)
	pm.Store(f.InodeOff(inplace.RootIno), img[:])
	pm.Flush(f.InodeOff(inplace.RootIno), inplace.InodeSize)
	pm.Fence()
	f.Nodes[inplace.RootIno] = root

	pm.Store64(sbMagicOff, Magic)
	pm.Store64(sbBlocksOff, f.totalBlocks)
	pm.Flush(0, 16)
	pm.Fence()
	f.mounted = true
	return nil
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
