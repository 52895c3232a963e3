package splitfs

import (
	"cmp"
	"encoding/binary"
	"hash/crc32"
	"slices"

	"chipmunk/internal/bugs"
	"chipmunk/internal/vfs"
)

// logEntry is one parsed op-log record.
type logEntry struct {
	seq     uint64
	opcode  uint8
	fdslot  int32
	payload []byte
}

// Mount implements vfs.FS: recover the kernel file system, then replay the
// op-log records the kernel commit does not cover.
func (f *FS) Mount() error { return f.mount(f.kernel.Mount) }

// mount recovers the kernel file system with kernel — its Mount, or its
// Remount when f remounts — then replays the op log.
func (f *FS) mount(kernel func() error) error {
	f.resetVolatile()
	if err := kernel(); err != nil {
		return err
	}
	tag := f.kernel.Tag()

	entries, scanEnd := f.scanLog(f.entries[:0])
	f.entries = entries
	f.logTail = scanEnd
	f.seq = tag
	for _, e := range entries {
		if e.seq > f.seq {
			f.seq = e.seq
		}
	}

	// Sequence numbers increase along the log, so the records the kernel
	// commit does not cover are a suffix of it.
	i := 0
	for i < len(entries) && entries[i].seq <= tag {
		i++
	}
	replay := entries[i:]
	if f.has(bugs.SplitfsRelinkSkip) {
		// Bug 23: within a run of consecutive write records to one inode,
		// the replay loop drains each descriptor's records as a group
		// instead of following global sequence order. Sequential workloads
		// are unaffected (descriptor numbers increase with the sequence),
		// but interleaved writes through two concurrently open descriptors
		// replay out of order and the stale data wins.
		reorderRunsPerFD(replay)
	}
	for _, e := range replay {
		f.replayEntry(e)
	}

	// Checkpoint the recovered state so the log and staging area restart
	// clean (the real SplitFS relinks during recovery too).
	if err := f.relink(); err != nil {
		return err
	}
	f.mounted = true
	return nil
}

// scanLog appends to out the records it parses from the log start: a
// record is accepted while its payload checksum matches and sequence
// numbers strictly increase (stale records from before the last relink
// fail the monotonicity check).
func (f *FS) scanLog(out []logEntry) ([]logEntry, int64) {
	pos := int64(logStart)
	lastSeq := uint64(0)
	for pos+entHdrSize <= f.logRg.Size() {
		hdr := f.logRg.Load(pos, entHdrSize)
		plen := int64(binary.LittleEndian.Uint32(hdr))
		csum := binary.LittleEndian.Uint32(hdr[4:])
		seq := binary.LittleEndian.Uint64(hdr[8:])
		opcode := hdr[16]
		fdslot := int32(binary.LittleEndian.Uint32(hdr[17:]))
		if opcode == 0 || opcode > opPwrite || plen < 0 || pos+entHdrSize+plen > f.logRg.Size() {
			break
		}
		if seq <= lastSeq {
			break
		}
		payload := f.logRg.Load(pos+entHdrSize, int(plen))
		if crc32.Checksum(payload, castagnoli) != csum {
			// Torn record: end of the valid log. With bug 24 this is how a
			// completed operation silently disappears.
			break
		}
		out = append(out, logEntry{seq: seq, opcode: opcode, fdslot: fdslot, payload: payload})
		lastSeq = seq
		pos += entHdrSize + plen
	}
	return out, pos
}

// replayEntry applies one record to the kernel's volatile state. Replay is
// deterministic: records were produced by successful operations on exactly
// this base state, so errors indicate an earlier record was lost; they are
// ignored, matching the real system's best-effort log replay.
func (f *FS) replayEntry(e logEntry) {
	switch e.opcode {
	case opCreat:
		path, _ := readPstr(e.payload)
		if kfd, err := f.kernel.Create(path); err == nil {
			f.kernel.Close(kfd)
		}
	case opMkdir:
		path, _ := readPstr(e.payload)
		f.kernel.Mkdir(path)
	case opRmdir:
		path, _ := readPstr(e.payload)
		f.kernel.Rmdir(path)
	case opLink:
		oldPath, rest := readPstr(e.payload)
		newPath, _ := readPstr(rest)
		f.kernel.Link(oldPath, newPath)
	case opUnlink:
		path, _ := readPstr(e.payload)
		f.kernel.Unlink(path)
	case opRename:
		oldPath, rest := readPstr(e.payload)
		newPath, _ := readPstr(rest)
		f.kernel.Rename(oldPath, newPath)
	case opRenameCreate:
		// Bug 25's first half: materialize the new name; the old name is
		// removed only by the (possibly lost) opRenameDelete record.
		oldPath, rest := readPstr(e.payload)
		newPath, _ := readPstr(rest)
		f.kernel.Link(oldPath, newPath)
	case opRenameDelete:
		path, _ := readPstr(e.payload)
		f.kernel.Unlink(path)
	case opTruncate:
		ino := binary.LittleEndian.Uint64(e.payload)
		size := int64(binary.LittleEndian.Uint64(e.payload[8:]))
		f.kernel.TruncateIno(ino, size)
	case opFalloc:
		ino := binary.LittleEndian.Uint64(e.payload)
		off := int64(binary.LittleEndian.Uint64(e.payload[8:]))
		n := int64(binary.LittleEndian.Uint64(e.payload[16:]))
		f.kernel.ExtendIno(ino, off+n)
	case opPwrite:
		ino, off, n, stageOff := decodeWrite(e.payload)
		if stageOff < 0 || stageOff+n > f.stage.Size() {
			return
		}
		data := f.stage.Load(stageOff, int(n))
		f.kernel.PwriteIno(ino, data, off)
	}
}

// reorderRunsPerFD stable-sorts each maximal run of consecutive pwrite
// records targeting the same inode by descriptor number (bug 23's replay
// grouping).
func reorderRunsPerFD(entries []logEntry) {
	i := 0
	for i < len(entries) {
		if entries[i].opcode != opPwrite {
			i++
			continue
		}
		ino := binary.LittleEndian.Uint64(entries[i].payload)
		j := i + 1
		for j < len(entries) && entries[j].opcode == opPwrite &&
			binary.LittleEndian.Uint64(entries[j].payload) == ino {
			j++
		}
		run := entries[i:j]
		slices.SortStableFunc(run, func(a, b logEntry) int { return cmp.Compare(a.fdslot, b.fdslot) })
		i = j
	}
}

var _ vfs.FS = (*FS)(nil)
