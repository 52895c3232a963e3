package winefs

import (
	"cmp"
	"encoding/binary"
	"slices"

	"chipmunk/internal/bugs"
	"chipmunk/internal/fs/inplace"
	"chipmunk/internal/vfs"
)

// WineFS keeps one redo journal per CPU. Each transaction is stamped with a
// global monotonically increasing transaction id; recovery parses the
// un-reclaimed window of every journal and re-applies the transactions
// merged in txid order, which keeps redo correct even though operations on
// shared objects (the root directory, say) land in different journals.
//
// Bug 19 is the recovery flaw the paper found: the published code indexed
// the journal array with the CPU id of the mounting task instead of walking
// every journal, so committed transactions in the other journals were never
// re-applied after a crash.
const (
	jAreaSize  = 2048
	jTxHdrSize = 24 // {txid u64, nrecs u64, reserved u64}
	// jReclaimThreshold: reclaim every journal once one is this full.
	jReclaimThreshold = (jAreaSize - inplace.RingStart) * 3 / 4
)

// commit writes t (header + records) to the current CPU's journal,
// publishes the tail, applies the records in place, and reclaims lazily.
// The CPU is the one the transaction began on: it moves only as a system
// call ends.
func (fs *FS) commit(t *inplace.Redo) {
	r := &fs.rings[fs.curCPU()]
	head := int64(fs.PM.Load64(r.Base + inplace.RingHeadOff))
	if r.Tail+jTxHdrSize+t.Size()-head > r.Room() {
		fs.reclaimAll()
	}
	pos := fs.appendTx(r, t)
	fs.PM.Fence()

	r.Tail = pos
	fs.PM.PersistStore64(r.Base+inplace.RingTailOff, uint64(pos))
	fs.PM.Fence()

	t.Apply(fs.PM)
	fs.PM.Fence()

	head = int64(fs.PM.Load64(r.Base + inplace.RingHeadOff))
	if pos-head >= jReclaimThreshold {
		fs.reclaimAll()
	}
}

// appendTx stamps t with the next txid and writes its header and records
// at r's tail, flushed and not fenced. It returns the region offset past
// them.
func (fs *FS) appendTx(r *inplace.Ring, t *inplace.Redo) int64 {
	var hdr [jTxHdrSize]byte
	binary.LittleEndian.PutUint64(hdr[:], fs.txid)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(t.Recs)))
	fs.txid++
	r.Store(r.Tail, hdr[:])
	pos := r.Tail + jTxHdrSize
	for _, rec := range t.Recs {
		pos = r.Append(pos, rec)
	}
	return pos
}

// reclaimAll retires every journal window. Reclamation must be globally
// ordered: per-journal reclamation would let recovery re-apply an old
// transaction from one journal after a newer, already-reclaimed transaction
// from another had updated the same words, rolling it back. The reclaim
// EPOCH (the next unissued txid) is persisted and fenced before any head
// moves: every transaction below the epoch has completed its in-place
// apply (execution is sequential), so recovery skips it — even if a crash
// leaves only some heads advanced.
func (fs *FS) reclaimAll() {
	fs.PM.PersistStore64(sbReclaimOff, fs.txid)
	fs.PM.Fence()
	for c := range fs.rings {
		r := &fs.rings[c]
		fs.PM.PersistStore64(r.Base+inplace.RingHeadOff, uint64(r.Tail))
	}
	fs.PM.Fence()
}

// parsedTx is one transaction recovered from a journal window: its
// records are replay.Recs[lo:hi].
type parsedTx struct {
	txid   uint64
	lo, hi int
}

// recoverJournals re-applies committed transactions. Fixed code merges all
// journals by txid; bug 19 reads only journal[0] (the mounting CPU). Each
// journal is parsed once: the parse feeds the merge and the next txid.
func (f *FS) recoverJournals() error {
	merged := NumCPUs
	if f.Bugs.Has(bugs.WinefsJournalIndex) {
		merged = 1 // only the live CPU's journal is consulted
	}
	epoch := f.PM.Load64(sbReclaimOff)
	f.replay.Reset()
	f.txs = f.txs[:0]
	for cpu := range f.rings {
		n := len(f.txs)
		err := f.parseJournal(cpu)
		if cpu < merged && err != nil {
			return err
		}
		// Every journal needs its DRAM tail for later commits, and the next
		// txid must pass its last one; a journal the merge does not consult
		// and cannot parse counts as txid 0.
		r := &f.rings[cpu]
		r.Tail = int64(f.PM.Load64(r.Base + inplace.RingTailOff))
		last := uint64(0)
		if err == nil && len(f.txs) > n {
			last = f.txs[len(f.txs)-1].txid
		}
		if f.txid <= last {
			f.txid = last + 1
		}
		kept := f.txs[:n]
		if cpu < merged {
			for _, tx := range f.txs[n:] {
				if tx.txid >= epoch {
					kept = append(kept, tx)
				}
			}
		}
		f.txs = kept
	}
	slices.SortFunc(f.txs, func(a, b parsedTx) int { return cmp.Compare(a.txid, b.txid) })
	for _, tx := range f.txs {
		for _, rec := range f.replay.Recs[tx.lo:tx.hi] {
			f.PM.PersistStore(rec.Off, rec.Data)
		}
	}
	f.PM.Fence()
	return nil
}

// parseJournal appends the transactions of cpu's journal window to f.txs,
// their records to f.replay.
func (f *FS) parseJournal(cpu int) error {
	r := &f.rings[cpu]
	head := int64(f.PM.Load64(r.Base + inplace.RingHeadOff))
	tail := int64(f.PM.Load64(r.Base + inplace.RingTailOff))
	if head < inplace.RingStart || tail < head {
		return vfs.Corruptf("journal %d pointers head=%d tail=%d", cpu, head, tail)
	}
	for pos := head; pos < tail; {
		var hdr [jTxHdrSize]byte
		r.LoadInto(pos, hdr[:])
		txid := binary.LittleEndian.Uint64(hdr[:])
		nrecs := binary.LittleEndian.Uint64(hdr[8:])
		if nrecs > 64 {
			return vfs.Corruptf("journal %d: tx with %d records", cpu, nrecs)
		}
		pos += jTxHdrSize
		tx := parsedTx{txid: txid, lo: len(f.replay.Recs)}
		for i := uint64(0); i < nrecs; i++ {
			target, n := r.Header(pos)
			if n > inplace.RecDataMax {
				return vfs.Corruptf("journal %d: record length %d", cpu, n)
			}
			if target < 0 || target+int64(n) > f.PM.Size() {
				return vfs.Corruptf("journal %d: record target %d", cpu, target)
			}
			var data [inplace.RecDataMax]byte
			r.LoadInto(pos+inplace.RecHdrSize, data[:n])
			f.replay.Set(target, data[:n])
			pos += inplace.RecSize(n)
		}
		tx.hi = len(f.replay.Recs)
		f.txs = append(f.txs, tx)
	}
	return nil
}
