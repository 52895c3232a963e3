package winefs

import "chipmunk/internal/vfs"

// The mini-journal backs the strict-mode "fast publish" path of bug 20: a
// fixed two-record redo area in the superblock block. The CORRECT protocol
// would fence the records before the commit word; the published fast path
// issues records and commit in one fence window, so a crash can persist the
// commit with only a subset of the records — recovery then redoes a partial
// transaction. The records are cleared (commit word first durable as zero)
// after every use so a stale commit never replays garbage.
// Each field sits in its own cache line: the commit word and the two
// records persist independently, which is what gives the missing fence its
// crash window.
const (
	mjCommitOff = 64  // within block 0, after the superblock header
	mjRec0Off   = 128 // {target u64, val u64}
	mjRec1Off   = 192 // {target u64, val u64}
)

// fastPublish publishes two 8-byte metadata words via the mini-journal with
// the missing record/commit fence.
func (f *FS) fastPublish(target0 int64, val0 uint64, target1 int64, val1 uint64) {
	pm := f.PM
	// The fast path writes words the per-CPU redo windows may also cover;
	// it retires them first so replay cannot roll the publish back.
	f.reclaimAll()
	// Records and commit in ONE fence window — the bug.
	pm.Store64(mjRec0Off, uint64(target0))
	pm.Store64(mjRec0Off+8, val0)
	pm.Flush(mjRec0Off, 16)
	pm.Store64(mjRec1Off, uint64(target1))
	pm.Store64(mjRec1Off+8, val1)
	pm.Flush(mjRec1Off, 16)
	pm.PersistStore64(mjCommitOff, 1)
	pm.Fence()
	// Apply in place.
	pm.PersistStore64(target0, val0)
	pm.PersistStore64(target1, val1)
	pm.Fence()
	// Retire: clear the commit word, then the records.
	pm.PersistStore64(mjCommitOff, 0)
	pm.Fence()
	pm.MemsetNT(mjRec0Off, 0, mjRec1Off-mjRec0Off+16)
	pm.Fence()
}

// recoverMiniJournal redoes a committed fast-publish transaction. Record
// slots holding zero targets are skipped (the cleared state).
func (f *FS) recoverMiniJournal() error {
	pm := f.PM
	if pm.Load64(mjCommitOff) != 1 {
		return nil
	}
	for _, off := range []int64{mjRec0Off, mjRec1Off} {
		target := int64(pm.Load64(off))
		if target == 0 {
			continue
		}
		if target < 0 || target+8 > pm.Size() {
			return vfs.Corruptf("mini-journal target %d out of range", target)
		}
		pm.PersistStore64(target, pm.Load64(off+8))
	}
	pm.Fence()
	pm.PersistStore64(mjCommitOff, 0)
	pm.Fence()
	pm.MemsetNT(mjRec0Off, 0, mjRec1Off-mjRec0Off+16)
	pm.Fence()
	return nil
}
