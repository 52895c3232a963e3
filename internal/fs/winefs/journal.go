package winefs

import (
	"encoding/binary"

	"sort"

	"chipmunk/internal/bugs"
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
	jHeadOff    = 0
	jTailOff    = 8
	jRecsStart  = 16
	jAreaSize   = 2048
	jRecDataMax = 128
	jTxHdrSize  = 24 // {txid u64, nrecs u64, reserved u64}
)

func journalBase(cpu int) int64 {
	return int64(journalBlock0+cpu) * BlockSize
}

type jrec struct {
	off  int64
	data []byte
}

type txn struct {
	fs   *FS
	cpu  int
	recs []jrec
}

func (f *FS) beginTx() *txn { return &txn{fs: f, cpu: f.curCPU()} }

func (t *txn) Set(off int64, data []byte) {
	if len(data) > jRecDataMax {
		panic("winefs: journal record too large")
	}
	t.recs = append(t.recs, jrec{off, data})
}

func pad8(n int) int { return (n + 7) &^ 7 }

// regionByte maps a monotonically increasing region offset to a device
// offset inside cpu's journal, wrapping modularly.
func regionByte(cpu int, pos int64) int64 {
	wrapped := jRecsStart + (pos-jRecsStart)%(jAreaSize-jRecsStart)
	return journalBase(cpu) + wrapped
}

func (f *FS) storeWrapped(cpu int, pos int64, data []byte) {
	for i := 0; i < len(data); {
		dev := regionByte(cpu, pos+int64(i))
		room := int(journalBase(cpu) + jAreaSize - dev)
		n := len(data) - i
		if n > room {
			n = room
		}
		f.PM.Store(dev, data[i:i+n])
		f.PM.Flush(dev, n)
		i += n
	}
}

func (f *FS) loadWrapped(cpu int, pos int64, n int) []byte {
	out := make([]byte, 0, n)
	for len(out) < n {
		dev := regionByte(cpu, pos+int64(len(out)))
		room := int(journalBase(cpu) + jAreaSize - dev)
		take := n - len(out)
		if take > room {
			take = room
		}
		out = append(out, f.PM.Load(dev, take)...)
	}
	return out
}

// commit writes the tx (header + records), publishes the tail, applies the
// records in place, and reclaims lazily.
func (t *txn) Commit() {
	fs := t.fs
	cpu := t.cpu
	base := journalBase(cpu)

	need := int64(jTxHdrSize)
	for _, r := range t.recs {
		need += 16 + int64(pad8(len(r.data)))
	}
	head := int64(fs.PM.Load64(base + jHeadOff))
	if fs.jTails[cpu]+need-head > int64(jAreaSize-jRecsStart) {
		fs.reclaimAll()
	}

	pos := fs.jTails[cpu]
	hdr := make([]byte, jTxHdrSize)
	binary.LittleEndian.PutUint64(hdr, fs.txid)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(t.recs)))
	fs.txid++
	fs.storeWrapped(cpu, pos, hdr)
	pos += jTxHdrSize
	for _, r := range t.recs {
		rh := make([]byte, 16)
		binary.LittleEndian.PutUint64(rh, uint64(r.off))
		binary.LittleEndian.PutUint64(rh[8:], uint64(len(r.data)))
		fs.storeWrapped(cpu, pos, rh)
		padded := make([]byte, pad8(len(r.data)))
		copy(padded, r.data)
		fs.storeWrapped(cpu, pos+16, padded)
		pos += 16 + int64(len(padded))
	}
	fs.PM.Fence()

	fs.jTails[cpu] = pos
	fs.PM.PersistStore64(base+jTailOff, uint64(pos))
	fs.PM.Fence()

	for _, r := range t.recs {
		fs.PM.Store(r.off, r.data)
		fs.PM.Flush(r.off, len(r.data))
	}
	fs.PM.Fence()

	head = int64(fs.PM.Load64(base + jHeadOff))
	if pos-head >= int64((jAreaSize-jRecsStart)*3/4) {
		fs.reclaimAll()
	}
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
	for c := 0; c < NumCPUs; c++ {
		fs.PM.PersistStore64(journalBase(c)+jHeadOff, uint64(fs.jTails[c]))
	}
	fs.PM.Fence()
}

// parsedTx is one transaction recovered from a journal window.
type parsedTx struct {
	txid uint64
	recs []jrec
}

// recoverJournals re-applies committed transactions. Fixed code merges all
// journals by txid; bug 19 reads only journal[0] (the mounting CPU).
func (f *FS) recoverJournals() error {
	cpus := NumCPUs
	if f.has(bugs.WinefsJournalIndex) {
		cpus = 1 // only the live CPU's journal is consulted
	}
	epoch := f.PM.Load64(sbReclaimOff)
	var txs []parsedTx
	for cpu := 0; cpu < cpus; cpu++ {
		parsed, err := f.parseJournal(cpu)
		if err != nil {
			return err
		}
		for _, tx := range parsed {
			if tx.txid >= epoch {
				txs = append(txs, tx)
			}
		}
	}
	// Journals not consulted still need their DRAM tails for later commits.
	for cpu := 0; cpu < NumCPUs; cpu++ {
		f.jTails[cpu] = int64(f.PM.Load64(journalBase(cpu) + jTailOff))
		if f.txid <= f.lastTxid(cpu) {
			f.txid = f.lastTxid(cpu) + 1
		}
	}
	sort.Slice(txs, func(i, j int) bool { return txs[i].txid < txs[j].txid })
	for _, tx := range txs {
		for _, r := range tx.recs {
			f.PM.Store(r.off, r.data)
			f.PM.Flush(r.off, len(r.data))
		}
	}
	f.PM.Fence()
	return nil
}

// lastTxid scans cpu's window for the highest committed txid.
func (f *FS) lastTxid(cpu int) uint64 {
	txs, err := f.parseJournal(cpu)
	if err != nil || len(txs) == 0 {
		return 0
	}
	return txs[len(txs)-1].txid
}

func (f *FS) parseJournal(cpu int) ([]parsedTx, error) {
	base := journalBase(cpu)
	head := int64(f.PM.Load64(base + jHeadOff))
	tail := int64(f.PM.Load64(base + jTailOff))
	if head < jRecsStart || tail < head {
		return nil, corrupt("journal %d pointers head=%d tail=%d", cpu, head, tail)
	}
	var txs []parsedTx
	for pos := head; pos < tail; {
		hdr := f.loadWrapped(cpu, pos, jTxHdrSize)
		txid := binary.LittleEndian.Uint64(hdr)
		nrecs := binary.LittleEndian.Uint64(hdr[8:])
		if nrecs > 64 {
			return nil, corrupt("journal %d: tx with %d records", cpu, nrecs)
		}
		pos += jTxHdrSize
		tx := parsedTx{txid: txid}
		for i := uint64(0); i < nrecs; i++ {
			rh := f.loadWrapped(cpu, pos, 16)
			target := int64(binary.LittleEndian.Uint64(rh))
			n := int(binary.LittleEndian.Uint64(rh[8:]))
			if n > jRecDataMax {
				return nil, corrupt("journal %d: record length %d", cpu, n)
			}
			if target < 0 || target+int64(n) > f.PM.Size() {
				return nil, corrupt("journal %d: record target %d", cpu, target)
			}
			tx.recs = append(tx.recs, jrec{target, f.loadWrapped(cpu, pos+16, n)})
			pos += 16 + int64(pad8(n))
		}
		txs = append(txs, tx)
	}
	return txs, nil
}
