package pmfs

import (
	"chipmunk/internal/bugs"
	"chipmunk/internal/fs/inplace"
	"chipmunk/internal/vfs"
)

// PMFS's journal is a small circular redo log. Records carry byte-range
// writes; the persistent head and tail words delimit the committed region.
// The tail advance is the commit point (records are fenced before it), and
// the head is advanced lazily in batches, so recovery normally re-applies a
// window of recent transactions — redo is idempotent and ordered, so this
// is safe.
//
// Records wrap byte-wise around the record area. Bug 16 lives in the
// recovery walk: the published code read wrapped records linearly, running
// off the end of the journal area into unrelated memory.
const (
	// jAreaSize is deliberately small so the wrap path is exercised by
	// short workloads (real PMFS journals wrap too, just over longer runs).
	jAreaSize = 1024
	// jReclaimThreshold: advance head once the log is this full.
	jReclaimThreshold = (jAreaSize - inplace.RingStart) * 3 / 4
)

// commit appends t's records, advances the tail (the commit point),
// applies the records in place, and occasionally reclaims the log.
func (fs *FS) commit(t *inplace.Redo) {
	r := &fs.ring
	headOff := r.Base + inplace.RingHeadOff
	// Reclaim eagerly if this transaction would overrun un-reclaimed
	// records: everything up to the current tail is already applied.
	head := int64(fs.PM.Load64(headOff))
	if r.Tail+t.Size()-head > r.Room() {
		fs.PM.PersistStore64(headOff, uint64(r.Tail))
		fs.PM.Fence()
	}
	pos := r.Tail
	for _, rec := range t.Recs {
		pos = r.Append(pos, rec)
	}
	fs.PM.Fence()
	// Commit point: publish the new tail.
	r.Tail = pos
	fs.PM.PersistStore64(r.Base+inplace.RingTailOff, uint64(pos))
	fs.PM.Fence()
	t.Apply(fs.PM)
	fs.PM.Fence()
	// Lazy reclamation: advance the head in batches.
	head = int64(fs.PM.Load64(headOff))
	if pos-head >= int64(jReclaimThreshold) {
		fs.PM.PersistStore64(headOff, uint64(pos))
		fs.PM.Fence()
	}
}

// recoverJournal re-applies the committed record window [head, tail).
// Fixed code walks records wrap-aware; the published code (bug 16) read
// them linearly and walked out of the journal area.
func (f *FS) recoverJournal() error {
	r := &f.ring
	head := int64(f.PM.Load64(r.Base + inplace.RingHeadOff))
	tail := int64(f.PM.Load64(r.Base + inplace.RingTailOff))
	if head < inplace.RingStart || tail < head {
		return vfs.Corruptf("journal pointers head=%d tail=%d", head, tail)
	}
	r.Tail = tail
	oob := f.Bugs.Has(bugs.PmfsJournalOOB)
	end := r.Base + r.Size
	for pos := head; pos < tail; {
		if oob {
			// The published walk reads the record linearly from its start
			// offset. A record that wraps the circular boundary is read
			// past the end of the journal area — an out-of-bounds access.
			dev := r.Dev(pos)
			if dev+inplace.RecHdrSize > end {
				return vfs.Corruptf("out-of-bounds journal read at device offset %d", dev+inplace.RecHdrSize)
			}
			recLen := int64(f.PM.Load64(dev + 8))
			if recLen > inplace.RecDataMax {
				return vfs.Corruptf("out-of-bounds journal record length %d at %d", recLen, dev)
			}
			if dev+inplace.RecSize(int(recLen)) > end {
				return vfs.Corruptf("out-of-bounds journal read: record at %d runs past area end", dev)
			}
			target := int64(f.PM.Load64(dev))
			data := f.PM.Load(dev+inplace.RecHdrSize, int(recLen))
			if target < 0 || target+recLen > f.PM.Size() {
				return vfs.Corruptf("journal replay targets invalid offset %d", target)
			}
			f.PM.PersistStore(target, data)
			pos += inplace.RecSize(int(recLen))
			continue
		}
		target, recLen := r.Header(pos)
		if recLen > inplace.RecDataMax {
			return vfs.Corruptf("journal record length %d out of range", recLen)
		}
		if target < 0 || target+int64(recLen) > f.PM.Size() {
			return vfs.Corruptf("journal replay targets invalid offset %d", target)
		}
		var data [inplace.RecDataMax]byte
		r.LoadInto(pos+inplace.RecHdrSize, data[:recLen])
		f.PM.PersistStore(target, data[:recLen])
		pos += inplace.RecSize(recLen)
	}
	f.PM.Fence()
	return nil
}
