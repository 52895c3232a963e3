package pmfs

import (
	"encoding/binary"

	"chipmunk/internal/bugs"
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
	jHeadOff   = 0 // u64: region offset of the oldest un-reclaimed record
	jTailOff   = 8 // u64: region offset one past the last committed record
	jRecsStart = 16
	// jAreaSize is deliberately small so the wrap path is exercised by
	// short workloads (real PMFS journals wrap too, just over longer runs).
	jAreaSize   = 1024
	jRecDataMax = 128
	// jReclaimThreshold: advance head once the log is this full.
	jReclaimThreshold = (jAreaSize - jRecsStart) * 3 / 4
)

type jrec struct {
	off  int64
	data []byte
}

type txn struct {
	fs   *FS
	recs []jrec
}

func (f *FS) beginTx() *txn { return &txn{fs: f} }

func (t *txn) Set(off int64, data []byte) {
	if len(data) > jRecDataMax {
		panic("pmfs: journal record too large")
	}
	t.recs = append(t.recs, jrec{off, data})
}

func pad8(n int) int { return (n + 7) &^ 7 }

// regionByte maps a region offset (possibly needing wrap) to a device
// offset.
func regionByte(pos int64) int64 {
	wrapped := jRecsStart + (pos-jRecsStart)%(jAreaSize-jRecsStart)
	return int64(journalBlock)*BlockSize + wrapped
}

// storeWrapped writes data at region offset pos, wrapping byte-wise.
func (f *FS) storeWrapped(pos int64, data []byte) {
	for i := 0; i < len(data); {
		dev := regionByte(pos + int64(i))
		// Contiguous run until the area end.
		room := int(int64(journalBlock)*BlockSize + jAreaSize - dev)
		n := len(data) - i
		if n > room {
			n = room
		}
		f.PM.Store(dev, data[i:i+n])
		f.PM.Flush(dev, n)
		i += n
	}
}

// loadWrapped reads n bytes at region offset pos with wrap handling.
func (f *FS) loadWrapped(pos int64, n int) []byte {
	out := make([]byte, 0, n)
	for len(out) < n {
		dev := regionByte(pos + int64(len(out)))
		room := int(int64(journalBlock)*BlockSize + jAreaSize - dev)
		take := n - len(out)
		if take > room {
			take = room
		}
		out = append(out, f.PM.Load(dev, take)...)
	}
	return out
}

// commit appends the records, advances the tail (the commit point), applies
// the records in place, and occasionally reclaims the log.
func (t *txn) Commit() {
	fs := t.fs
	base := int64(journalBlock) * BlockSize
	// Reclaim eagerly if this transaction would overrun un-reclaimed
	// records: everything up to the current tail is already applied.
	need := int64(0)
	for _, r := range t.recs {
		need += 16 + int64(pad8(len(r.data)))
	}
	head := int64(fs.PM.Load64(base + jHeadOff))
	if fs.jTail+need-head > int64(jAreaSize-jRecsStart) {
		fs.PM.PersistStore64(base+jHeadOff, uint64(fs.jTail))
		fs.PM.Fence()
	}
	pos := fs.jTail
	for _, r := range t.recs {
		hdr := make([]byte, 16)
		binary.LittleEndian.PutUint64(hdr, uint64(r.off))
		binary.LittleEndian.PutUint64(hdr[8:], uint64(len(r.data)))
		fs.storeWrapped(pos, hdr)
		padded := make([]byte, pad8(len(r.data)))
		copy(padded, r.data)
		fs.storeWrapped(pos+16, padded)
		pos += 16 + int64(len(padded))
	}
	fs.PM.Fence()
	// Commit point: publish the new tail.
	fs.jTail = pos
	fs.PM.PersistStore64(base+jTailOff, uint64(pos))
	fs.PM.Fence()
	// Apply in place.
	for _, r := range t.recs {
		fs.PM.Store(r.off, r.data)
		fs.PM.Flush(r.off, len(r.data))
	}
	fs.PM.Fence()
	// Lazy reclamation: advance the head in batches.
	head = int64(fs.PM.Load64(base + jHeadOff))
	if pos-head >= int64(jReclaimThreshold) {
		fs.PM.PersistStore64(base+jHeadOff, uint64(pos))
		fs.PM.Fence()
	}
}

// recoverJournal re-applies the committed record window [head, tail).
// Fixed code walks records wrap-aware; the published code (bug 16) read
// them linearly and walked out of the journal area.
func (f *FS) recoverJournal() error {
	base := int64(journalBlock) * BlockSize
	head := int64(f.PM.Load64(base + jHeadOff))
	tail := int64(f.PM.Load64(base + jTailOff))
	if head < jRecsStart || tail < head {
		return corrupt("journal pointers head=%d tail=%d", head, tail)
	}
	f.jTail = tail
	oob := f.has(bugs.PmfsJournalOOB)
	for pos := head; pos < tail; {
		if oob {
			// The published walk reads the record linearly from its start
			// offset. A record that wraps the circular boundary is read
			// past the end of the journal area — an out-of-bounds access.
			dev := regionByte(pos)
			if dev+16 > base+jAreaSize {
				return corrupt("out-of-bounds journal read at device offset %d", dev+16)
			}
			recLen := int64(f.PM.Load64(dev + 8))
			if recLen > jRecDataMax {
				return corrupt("out-of-bounds journal record length %d at %d", recLen, dev)
			}
			if dev+16+int64(pad8(int(recLen))) > base+jAreaSize {
				return corrupt("out-of-bounds journal read: record at %d runs past area end", dev)
			}
			target := int64(f.PM.Load64(dev))
			data := f.PM.Load(dev+16, int(recLen))
			if target < 0 || target+recLen > f.PM.Size() {
				return corrupt("journal replay targets invalid offset %d", target)
			}
			f.PM.Store(target, data)
			f.PM.Flush(target, int(recLen))
			pos += 16 + int64(pad8(int(recLen)))
			continue
		}
		hdr := f.loadWrapped(pos, 16)
		target := int64(binary.LittleEndian.Uint64(hdr))
		recLen := int(binary.LittleEndian.Uint64(hdr[8:]))
		if recLen > jRecDataMax {
			return corrupt("journal record length %d out of range", recLen)
		}
		if target < 0 || target+int64(recLen) > f.PM.Size() {
			return corrupt("journal replay targets invalid offset %d", target)
		}
		data := f.loadWrapped(pos+16, recLen)
		f.PM.Store(target, data)
		f.PM.Flush(target, recLen)
		pos += 16 + int64(pad8(recLen))
	}
	f.PM.Fence()
	return nil
}
