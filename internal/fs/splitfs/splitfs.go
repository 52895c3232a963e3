// Package splitfs implements a SplitFS-like hybrid file system [Kadekodi et
// al., SOSP '19] in strict mode: a user-space library handles the data path
// and logs every operation synchronously, while a kernel file system
// (ext4-DAX, package extdax) provides the backing namespace.
//
// The PM device is split into three regions:
//
//   - the kernel region, formatted as ext4-DAX;
//   - the operation log, where the user-space half appends one checksummed
//     record per system call (this is what makes strict-mode SplitFS
//     synchronous and atomic even though ext4-DAX is weak);
//   - the staging area, where write data is placed with non-temporal
//     stores before its log record is published.
//
// A "relink" (triggered by fsync/sync, or by log/stage pressure) commits
// the accumulated state into the kernel file system — tagged with the
// highest op sequence it covers — and resets the log and staging area.
// Recovery mounts the kernel file system and replays log records newer than
// the kernel's tag.
//
// Injected bugs (Table 1): 21 (metadata record not fenced), 22 (staging
// cursor keyed by file descriptor, so a second FD's writes clobber staged
// data), 23 (replay groups records by file descriptor instead of global
// sequence order), 24 (record payload not flushed before the checksummed
// header), 25 (rename logged as create-new now and delete-old later).
package splitfs

import (
	"encoding/binary"
	"hash/crc32"

	"chipmunk/internal/bugs"
	"chipmunk/internal/fs/extdax"
	"chipmunk/internal/persist"
	"chipmunk/internal/vfs"
)

const (
	// Region split: the kernel gets half the device, the op-log a quarter,
	// the staging area the rest.
	logStart = 64 // within the op-log region

	// Entry header: {payloadLen u32, csum u32, seq u64, opcode u8, fdslot
	// u32}. The header occupies a full cache line so that sealing it never
	// implicitly writes back payload bytes sharing the line — the payload's
	// durability must come from its own flush (which bug 24 omits).
	entHdrSize = 64

	// stageChunk is the per-file staging window.
	stageChunk = 64 << 10

	opCreat        = 1
	opMkdir        = 2
	opLink         = 3
	opUnlink       = 4
	opRmdir        = 5
	opRename       = 6
	opRenameCreate = 7 // bug 25's first half
	opRenameDelete = 8 // bug 25's deferred second half
	opTruncate     = 9
	opFalloc       = 10
	opPwrite       = 11
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// openFile tracks one SplitFS descriptor.
type openFile struct {
	kfd  vfs.FD
	path string
	ino  uint64
}

// FS is the SplitFS instance.
type FS struct {
	pm   *persist.PM
	bugs bugs.Set

	kernel *extdax.FS
	logRg  *persist.Region
	stage  *persist.Region

	// descs holds each descriptor's openFile, the state bugs 22 and 23 key
	// on.
	descs vfs.FDTable[*openFile]

	seq     uint64 // last op sequence number issued
	logTail int64  // next free byte in the op-log region
	mounted bool

	// Staging state. stageBase maps an inode to its chunk; the write
	// cursor is keyed per-inode (fixed) or per-FD (bug 22).
	stageBump  int64
	stageBase  map[uint64]int64
	inoCursor  map[uint64]int64
	fdCursor   map[vfs.FD]int64
	pendingOps [][]byte // bug 25: deferred delete-old records

	// entries is Mount's parse of the op log, kept for the next mount.
	entries []logEntry
}

// New creates a SplitFS over pm. The device must be large enough for the
// three regions (>= 1 MiB).
func New(pm *persist.PM, set bugs.Set) *FS {
	total := pm.Size()
	kernelSize := total / 2
	logSize := total / 4
	f := &FS{
		pm:   pm,
		bugs: set,
	}
	f.logRg = persist.NewRegion(pm, kernelSize, logSize)
	f.stage = persist.NewRegion(pm, kernelSize+logSize, total-kernelSize-logSize)
	f.kernel = extdax.New(persist.NewRegion(pm, 0, kernelSize), extdax.Ext4)
	return f
}

// Caps implements vfs.FS: strict-mode SplitFS is synchronous and atomic.
func (f *FS) Caps() vfs.Caps {
	return vfs.Caps{Name: "splitfs", Strong: true, AtomicWrite: true, SyncDataWrites: true}
}

func (f *FS) has(id bugs.ID) bool { return f.bugs.Has(id) }

// Mkfs implements vfs.FS.
func (f *FS) Mkfs() error {
	if err := f.kernel.Mkfs(); err != nil {
		return err
	}
	f.logRg.MemsetNT(0, 0, logStart)
	f.logRg.Fence()
	f.resetVolatile()
	f.seq = 0
	f.logTail = logStart
	f.mounted = true
	return nil
}

func (f *FS) resetVolatile() {
	f.descs.Reset()
	f.resetStage()
	f.pendingOps = nil
}

// resetStage empties the staging state, keeping the maps' storage.
func (f *FS) resetStage() {
	f.stageBump = 0
	if f.stageBase == nil {
		f.stageBase, f.inoCursor, f.fdCursor = map[uint64]int64{}, map[uint64]int64{}, map[vfs.FD]int64{}
	}
	clear(f.stageBase)
	clear(f.inoCursor)
	clear(f.fdCursor)
}

// Remount implements vfs.Remounter. It rebuilds f as New did, keeping the
// staging maps, the descriptor table and the log parse, which Mount
// empties, and the kernel file system, which it remounts.
func (f *FS) Remount() error {
	*f = FS{
		pm: f.pm, bugs: f.bugs, kernel: f.kernel, logRg: f.logRg, stage: f.stage,
		descs: f.descs, stageBase: f.stageBase, inoCursor: f.inoCursor, fdCursor: f.fdCursor,
		entries: f.entries[:0],
	}
	return f.mount(f.kernel.Remount)
}

// Unmount implements vfs.FS.
func (f *FS) Unmount() error {
	f.mounted = false
	f.descs.Reset()
	return f.kernel.Unmount()
}

// relink commits the accumulated state into the kernel file system and
// resets the log and staging area. In the real SplitFS this is the relink
// ioctl that swaps staged extents into the inode; our kernel substrate
// expresses it as a tagged journal commit.
func (f *FS) relink() error {
	f.flushPending()
	if err := f.kernel.CommitTagged(f.seq); err != nil {
		return err
	}
	f.logTail = logStart
	f.resetStage()
	return nil
}

// appendEntry publishes one op record. metadata selects bug 21's missing
// fence; bug 24 skips the payload flush on every record.
func (f *FS) appendEntry(opcode uint8, fdslot vfs.FD, payload []byte, metadata bool) error {
	f.flushPending()
	return f.appendEntryRaw(opcode, fdslot, payload, metadata)
}

func (f *FS) appendEntryRaw(opcode uint8, fdslot vfs.FD, payload []byte, metadata bool) error {
	need := int64(entHdrSize + len(payload))
	if f.logTail+need > f.logRg.Size() {
		// Log pressure: relink to make room.
		if err := f.relink(); err != nil {
			return err
		}
	}
	hdr := make([]byte, entHdrSize)
	binary.LittleEndian.PutUint32(hdr, uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	f.seq++
	binary.LittleEndian.PutUint64(hdr[8:], f.seq)
	hdr[16] = opcode
	binary.LittleEndian.PutUint32(hdr[17:], uint32(fdslot))

	f.logRg.Store(f.logTail+entHdrSize, payload)
	if !f.has(bugs.SplitfsTailBeforeCsum) {
		f.logRg.Flush(f.logTail+entHdrSize, len(payload))
	}
	// Bug 24: the checksummed header is published while the payload bytes
	// were never written back — recovery sees a sealed record whose body
	// checksum cannot match and silently drops the operation.
	f.logRg.Store(f.logTail, hdr)
	f.logRg.Flush(f.logTail, entHdrSize)
	if metadata && f.has(bugs.SplitfsOplogUnfenced) {
		// Bug 21: no fence; the record is still in flight when the call
		// returns.
	} else {
		f.logRg.Fence()
	}
	f.logTail += need
	return nil
}

// flushPending appends records deferred by bug 25.
func (f *FS) flushPending() {
	pend := f.pendingOps
	f.pendingOps = nil
	for _, p := range pend {
		// opcode/fdslot packed in the first two bytes of the deferred blob.
		f.appendEntryRaw(p[0], 0, p[1:], true)
	}
}

// payload builders.

func pstr(s string) []byte {
	b := []byte{byte(len(s))}
	return append(b, s...)
}

func readPstr(b []byte) (string, []byte) {
	n := int(b[0])
	return string(b[1 : 1+n]), b[1+n:]
}

func pu64(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

var (
	_ vfs.FS        = (*FS)(nil)
	_ vfs.Remounter = (*FS)(nil)
)

// OpenFDs implements vfs.FDCounter. Every SplitFS descriptor wraps one
// kernel descriptor, so the two tables must agree; reporting the larger
// count surfaces leaks on either side of the delegation.
func (f *FS) OpenFDs() int { return max(f.kernel.OpenFDs(), f.descs.OpenFDs()) }
