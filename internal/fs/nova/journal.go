package nova

import (
	"encoding/binary"

	"chipmunk/internal/bugs"
)

// The journal is a small redo log used to make multi-inode operations
// (link, unlink, rename, mkdir, rmdir) atomic. Each record is a byte-range
// write — in plain NOVA an 8-byte tail or nlink word, in Fortis mode a full
// 128-byte inode image so the checksum and value change together.
//
// Protocol: record the writes, flush, fence; set the commit flag, fence;
// apply the writes in place, fence; clear the commit flag, fence. Recovery
// redoes a committed journal and ignores an uncommitted one. This mirrors
// NOVA's lightweight journal for directory operations.

const (
	jStateOff   = 0  // u64: 0 = free, 1 = committed
	jCountOff   = 8  // u64: number of records
	jRecsOff    = 16 // records of {off u64, len u64, data[jRecDataMax]}
	jRecDataMax = 128
	jRecSize    = 16 + jRecDataMax
	// jMaxRecs bounds a transaction: (4096-16)/144 = 28.
	jMaxRecs = (PageSize - jRecsOff) / jRecSize
)

// jrec is one record: the first n bytes of data belong at off.
type jrec struct {
	off  int64
	n    int
	data [jRecDataMax]byte
}

// txn accumulates byte-range writes to be applied atomically. Its records
// are inline, so a transaction lives on its caller's stack.
type txn struct {
	fs   *FS
	n    int
	recs [jMaxRecs]jrec
}

func (fs *FS) beginTx() *txn { return &txn{fs: fs} }

// set records an 8-byte word write.
func (t *txn) set(off int64, val uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], val)
	t.setBytes(off, b[:])
}

// setBytes records a byte-range write of up to jRecDataMax bytes.
func (t *txn) setBytes(off int64, data []byte) {
	if t.n >= jMaxRecs {
		panic("nova: journal transaction overflow")
	}
	if len(data) > jRecDataMax {
		panic("nova: journal record too large")
	}
	r := &t.recs[t.n]
	r.off, r.n = off, copy(r.data[:], data)
	t.n++
}

// bytes returns r's data.
func (r *jrec) bytes() []byte { return r.data[:r.n] }

// addInode records the primary inode image for d (reflecting d's current
// DRAM fields) and, unless lazyReplica is in effect under bug 10, the
// replica image as well.
func (t *txn) addInode(d *dnode, lazyReplica bool) {
	img := t.fs.inodeImage(d)
	t.setBytes(inodeOff(d.Ino), img[:])
	if t.fs.fortis {
		if lazyReplica && t.fs.has(bugs.FortisReplicaSkew) {
			t.fs.lazyReplicas = append(t.fs.lazyReplicas, d.Ino)
		} else {
			t.setBytes(inodeOff(d.Ino)+inoReplicaOff, img[:])
		}
	}
}

// commit runs the journal protocol and applies the records in place.
func (t *txn) commit() {
	fs := t.fs
	base := int64(journalPage) * PageSize
	// 1. Record the writes.
	recs := t.recs[:t.n]
	for i := range recs {
		r := &recs[i]
		off := base + jRecsOff + int64(i)*jRecSize
		fs.pm.Store64(off, uint64(r.off))
		fs.pm.Store64(off+8, uint64(r.n))
		fs.pm.Store(off+16, r.bytes())
	}
	fs.pm.Store64(base+jCountOff, uint64(t.n))
	fs.pm.Flush(base+jCountOff, 8+t.n*jRecSize)
	fs.pm.Fence()
	// 2. Commit.
	fs.pm.PersistStore64(base+jStateOff, 1)
	fs.pm.Fence()
	// 3. Apply in place.
	for i := range recs {
		r := &recs[i]
		fs.pm.Store(r.off, r.bytes())
		fs.pm.Flush(r.off, r.n)
	}
	fs.pm.Fence()
	// 4. Free the journal.
	fs.pm.PersistStore64(base+jStateOff, 0)
	fs.pm.Fence()
}

// recoverJournal redoes a committed journal at mount.
func (fs *FS) recoverJournal() {
	base := int64(journalPage) * PageSize
	if fs.pm.Load64(base+jStateOff) != 1 {
		return
	}
	count := fs.pm.Load64(base + jCountOff)
	if count > jMaxRecs {
		count = jMaxRecs
	}
	for i := uint64(0); i < count; i++ {
		off := base + jRecsOff + int64(i)*jRecSize
		target := int64(fs.pm.Load64(off))
		n := fs.pm.Load64(off + 8)
		if n > jRecDataMax || target < 0 || target+int64(n) > fs.pm.Size() {
			continue
		}
		data := fs.pm.Load(off+16, int(n))
		fs.pm.Store(target, data)
		fs.pm.Flush(target, int(n))
	}
	fs.pm.Fence()
	fs.pm.PersistStore64(base+jStateOff, 0)
	fs.pm.Fence()
}
