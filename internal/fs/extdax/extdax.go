// Package extdax models ext4-DAX and XFS-DAX: mature journaling file
// systems mounted in DAX mode, with the WEAK crash-consistency guarantees
// the paper contrasts against PM-native designs. All state lives in a
// volatile cache until an fsync/fdatasync/sync commits a journal
// transaction; a crash reverts the file system to its last committed
// transaction.
//
// The on-PM format is a logical redo journal: each commit appends one
// transaction holding the serialized nodes dirtied since the previous
// commit (plus deletions), sealed by a checksummed commit header. Recovery
// replays committed transactions in order. This compresses ext4's
// jbd2+checkpoint machinery into its crash-semantics essence: fsync-gated,
// transaction-atomic durability. Like the real systems — where most code is
// shared with the battle-tested non-DAX versions — it carries no injected
// bugs, and Chipmunk finds none (§4.4).
//
// Transactions carry an opaque tag so a layered file system (SplitFS) can
// record how much of its own operation log each kernel commit covers.
package extdax

import (
	"encoding/binary"
	"hash/crc32"
	"maps"
	"slices"

	"chipmunk/internal/persist"
	"chipmunk/internal/vfs"
)

const (
	// Magic identifies a formatted image (variant-specific).
	magicExt4 = 0x45585434 // "EXT4"
	magicXFS  = 0x58465344 // "XFSD"

	sbMagicOff = 0
	sbSizeOff  = 8
	// sbActiveOff holds the device offset of the active journal area (the
	// 8-byte atomic flip that makes compaction crash-consistent).
	sbActiveOff = 16
	// journalStart is where the first journal area begins. The journal is
	// ping-pong compacted between two halves of the remaining device: when
	// the active area fills, the whole tree is serialized as one snapshot
	// transaction at the start of the inactive area, the active pointer is
	// flipped atomically, and appending continues there — jbd2's
	// checkpoint-and-reclaim expressed at the logical level.
	journalStart = 64

	// Transaction framing.
	txMagic      = 0x54583442
	txHdrSize    = 32 // {magic u32, pad u32, txid u64, tag u64, bodyLen u64}
	txCommitSize = 16 // {commitMagic u32, csum u32, txid u64}
	commitMagic  = 0x434F4D54
	recNode      = 1
	recDelete    = 2
	maxNameLen   = vfs.MaxNameLen
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Variant selects the modelled system.
type Variant int

const (
	// Ext4 models ext4-DAX.
	Ext4 Variant = iota
	// XFS models XFS-DAX.
	XFS
)

// node is a volatile-tree node.
type node struct {
	ino      uint64
	typ      vfs.FileType
	nlink    uint32
	data     []byte
	children map[string]uint64 // directories
	xattrs   map[string]string
}

// FS is the ext4-DAX / XFS-DAX model.
type FS struct {
	pm      persist.Space
	variant Variant

	nodes   map[uint64]*node
	nextIno uint64
	descs   vfs.FDTable[*node]

	dirty   map[uint64]bool // nodes dirtied since the last commit
	deleted map[uint64]bool

	txid    uint64
	jTail   int64 // device offset where the next transaction goes
	jBase   int64 // start of the active journal area
	jLimit  int64 // one past the end of the active journal area
	tag     uint64
	mounted bool

	// enc is the buffer a commit frames its transaction in, one per fork
	// family: the first commit (Mkfs's, on a formatted instance) makes it
	// and Fork hands every copy the same pointer. Sharing is safe because
	// one goroutine owns a family (core.Chain), the device copies what it
	// stores, and a frame is dead once its commit returns.
	enc *[]byte
}

// areaBounds returns the [base, limit) bounds of journal area 0 or 1.
func (f *FS) areaBounds(area int) (int64, int64) {
	usable := f.pm.Size() - journalStart
	half := usable / 2
	if area == 0 {
		return journalStart, journalStart + half
	}
	return journalStart + half, f.pm.Size()
}

// New creates an instance over space.
func New(space persist.Space, variant Variant) *FS {
	return &FS{pm: space, variant: variant}
}

func (f *FS) magic() uint64 {
	if f.variant == XFS {
		return magicXFS
	}
	return magicExt4
}

// Caps implements vfs.FS: weak guarantees, fsync required.
func (f *FS) Caps() vfs.Caps {
	name := "ext4-dax"
	if f.variant == XFS {
		name = "xfs-dax"
	}
	return vfs.Caps{Name: name, Strong: false, AtomicWrite: false, SyncDataWrites: false}
}

// Mkfs implements vfs.FS.
func (f *FS) Mkfs() error {
	f.pm.MemsetNT(0, 0, int(min(64<<10, f.pm.Size())))
	f.pm.Fence()
	f.pm.Store64(sbMagicOff, f.magic())
	f.pm.Store64(sbSizeOff, uint64(f.pm.Size()))
	base, limit := f.areaBounds(0)
	f.pm.Store64(sbActiveOff, uint64(base))
	f.pm.Flush(0, 24)
	f.pm.Fence()

	f.nodes = map[uint64]*node{1: {ino: 1, typ: vfs.TypeDir, nlink: 2, children: map[string]uint64{}}}
	f.nextIno = 2
	f.descs.Reset()
	f.dirty = map[uint64]bool{1: true}
	f.deleted = map[uint64]bool{}
	f.txid = 1
	f.jBase, f.jLimit = base, limit
	f.jTail = base
	f.mounted = true
	// Commit the empty root so a crash right after mkfs recovers cleanly.
	return f.commit()
}

// Unmount implements vfs.FS. Dirty (uncommitted) state is dropped, exactly
// like unplugging a weak file system without sync.
func (f *FS) Unmount() error {
	f.mounted = false
	f.descs.Reset()
	return nil
}

// Mount implements vfs.FS: replay all committed transactions.
func (f *FS) Mount() error {
	if f.nodes == nil {
		f.nodes, f.dirty, f.deleted = map[uint64]*node{}, map[uint64]bool{}, map[uint64]bool{}
	}
	clear(f.nodes)
	clear(f.dirty)
	clear(f.deleted)
	f.descs.Reset()
	if f.pm.Load64(sbMagicOff) != f.magic() {
		return vfs.Corruptf("bad superblock magic")
	}
	f.nextIno = 2
	f.tag = 0

	f.jBase = int64(f.pm.Load64(sbActiveOff))
	b0, l0 := f.areaBounds(0)
	b1, l1 := f.areaBounds(1)
	switch f.jBase {
	case b0:
		f.jLimit = l0
	case b1:
		f.jLimit = l1
	default:
		return vfs.Corruptf("active journal pointer %d", f.jBase)
	}
	pos := f.jBase
	f.txid = 0 // the first tx of an area sets the expected sequence
	for {
		txid, tag, next, ok := f.replayTx(pos)
		if !ok {
			break
		}
		f.txid = txid + 1
		f.tag = tag
		pos = next
	}
	f.jTail = pos

	root := f.nodes[1]
	if root == nil || root.typ != vfs.TypeDir {
		return vfs.Corruptf("no committed root")
	}
	for ino := range f.nodes {
		if ino >= f.nextIno {
			f.nextIno = ino + 1
		}
	}
	f.mounted = true
	return nil
}

// Remount implements vfs.Remounter. It rebuilds f as New did, keeping the
// storage of the tree, the dirty and deleted sets, the descriptor table
// and the commit buffer, which Mount empties before it reads the image.
func (f *FS) Remount() error {
	*f = FS{
		pm: f.pm, variant: f.variant,
		nodes: f.nodes, descs: f.descs, dirty: f.dirty, deleted: f.deleted, enc: f.enc,
	}
	return f.Mount()
}

// Fork implements vfs.Forker. Everything before a commit lives in DRAM, so
// the copy takes the whole tree, the dirty and deleted sets, and the
// journal cursors. File data is shared: no node's is written in place.
// The copy joins f's fork family and shares its commit buffer. A mounted
// instance's file data lives in the device's read arena until the next
// Device.Reset, so it is never forked: the engine forks only the guests
// it formatted and recorded on.
func (f *FS) Fork(pm persist.Space) vfs.FS {
	descs, ok := f.descs.Fork()
	if !ok || !f.mounted {
		return nil
	}
	g := *f
	g.pm, g.descs = pm, descs
	g.nodes = make(map[uint64]*node, len(f.nodes))
	for ino, n := range f.nodes {
		c := *n
		c.children, c.xattrs = maps.Clone(n.children), maps.Clone(n.xattrs)
		g.nodes[ino] = &c
	}
	g.dirty, g.deleted = maps.Clone(f.dirty), maps.Clone(f.deleted)
	return &g
}

// Tag returns the tag of the newest committed transaction (used by SplitFS
// to know how much of its op-log the kernel state covers).
func (f *FS) Tag() uint64 { return f.tag }

// commit appends one transaction holding all dirty state. No-op when clean.
func (f *FS) commit() error {
	return f.commitTagged(f.tag)
}

// CommitTagged commits dirty state, recording tag in the transaction
// header.
func (f *FS) CommitTagged(tag uint64) error { return f.commitTagged(tag) }

func (f *FS) commitTagged(tag uint64) error {
	if len(f.dirty) == 0 && len(f.deleted) == 0 && tag == f.tag {
		return nil
	}
	tx := f.frame(f.txid, tag, false)
	if f.jTail+int64(len(tx)) > f.jLimit {
		if err := f.compact(); err != nil {
			return err
		}
		// The snapshot took the buffer and the txid: frame again.
		tx = f.frame(f.txid, tag, false)
		if f.jTail+int64(len(tx)) > f.jLimit {
			return vfs.ErrNoSpace
		}
	}
	f.writeTx(f.jTail, tx)
	f.jTail += int64(len(tx))
	f.txid++
	f.tag = tag
	clear(f.dirty)
	clear(f.deleted)
	return nil
}

// compact checkpoints the whole tree into the inactive journal area as one
// snapshot transaction and atomically flips the active pointer. A crash
// before the flip leaves the old area authoritative; after it, the new one.
func (f *FS) compact() error {
	newBase, newLimit := f.areaBounds(0)
	if f.jBase == newBase {
		newBase, newLimit = f.areaBounds(1)
	}
	tx := f.frame(f.txid, f.tag, true)
	if newBase+int64(len(tx)) > newLimit {
		return vfs.ErrNoSpace
	}
	f.writeTx(newBase, tx)
	// The atomic flip.
	f.pm.PersistStore64(sbActiveOff, uint64(newBase))
	f.pm.Fence()

	f.jBase, f.jLimit = newBase, newLimit
	f.jTail = newBase + int64(len(tx))
	f.txid++
	return nil
}

// frame lays out transaction txid in the family's buffer: the header, the
// body (every node with snapshot, else the dirty and deleted ones) and
// the commit record. It stays valid until the family's next frame.
func (f *FS) frame(txid, tag uint64, snapshot bool) []byte {
	if f.enc == nil {
		f.enc = new([]byte)
	}
	tx := f.encodeBody(append((*f.enc)[:0], make([]byte, txHdrSize)...), snapshot)
	body := tx[txHdrSize:]
	binary.LittleEndian.PutUint32(tx, txMagic)
	binary.LittleEndian.PutUint64(tx[8:], txid)
	binary.LittleEndian.PutUint64(tx[16:], tag)
	binary.LittleEndian.PutUint64(tx[24:], uint64(len(body)))
	tx = binary.LittleEndian.AppendUint32(tx, commitMagic)
	tx = binary.LittleEndian.AppendUint32(tx, crc32.Checksum(body, castagnoli))
	tx = binary.LittleEndian.AppendUint64(tx, txid)
	*f.enc = tx
	return tx
}

// writeTx writes the framed tx at off, jbd2-style: descriptor and data
// blocks first, fence, then the commit record, fence.
func (f *FS) writeTx(off int64, tx []byte) {
	end := int64(len(tx) - txCommitSize)
	f.pm.Store(off, tx[:txHdrSize])
	f.pm.Flush(off, txHdrSize)
	if end > txHdrSize {
		f.pm.Store(off+txHdrSize, tx[txHdrSize:end])
		f.pm.Flush(off+txHdrSize, int(end-txHdrSize))
	}
	f.pm.Fence()
	f.pm.Store(off+end, tx[end:])
	f.pm.Flush(off+end, txCommitSize)
	f.pm.Fence()
}

// encodeBody appends the serialized dirty and deleted nodes to out, or
// with snapshot every node and no deletions.
func (f *FS) encodeBody(out []byte, snapshot bool) []byte {
	inos := make([]uint64, 0, len(f.dirty))
	if snapshot {
		for ino := range f.nodes {
			inos = append(inos, ino)
		}
	} else {
		for ino := range f.dirty {
			if !f.deleted[ino] {
				inos = append(inos, ino)
			}
		}
	}
	slices.Sort(inos)
	for _, ino := range inos {
		n := f.nodes[ino]
		if n == nil || n.nlink == 0 {
			continue // an unlinked node a descriptor holds is deleted on media
		}
		out = append(out, recNode)
		out = appendU64(out, ino)
		out = append(out, byte(n.typ))
		out = appendU32(out, n.nlink)
		// Extended attributes.
		xnames := make([]string, 0, len(n.xattrs))
		for name := range n.xattrs {
			xnames = append(xnames, name)
		}
		slices.Sort(xnames)
		out = appendU32(out, uint32(len(xnames)))
		for _, name := range xnames {
			out = append(out, byte(len(name)))
			out = append(out, name...)
			val := n.xattrs[name]
			out = appendU32(out, uint32(len(val)))
			out = append(out, val...)
		}
		if n.typ == vfs.TypeRegular {
			out = appendU64(out, uint64(len(n.data)))
			out = append(out, n.data...)
		} else {
			names := make([]string, 0, len(n.children))
			for name := range n.children {
				names = append(names, name)
			}
			slices.Sort(names)
			out = appendU32(out, uint32(len(names)))
			for _, name := range names {
				out = append(out, byte(len(name)))
				out = append(out, name...)
				out = appendU64(out, n.children[name])
			}
		}
	}
	if snapshot {
		return out
	}
	dels := make([]uint64, 0, len(f.deleted))
	for ino := range f.deleted {
		dels = append(dels, ino)
	}
	slices.Sort(dels)
	for _, ino := range dels {
		out = append(out, recDelete)
		out = appendU64(out, ino)
	}
	return out
}

// replayTx validates and applies the transaction at pos. ok is false at the
// end of the committed log (bad magic, bad checksum, or truncation).
func (f *FS) replayTx(pos int64) (txid, tag uint64, next int64, ok bool) {
	if pos+txHdrSize > f.pm.Size() {
		return 0, 0, 0, false
	}
	hdr := f.pm.Load(pos, txHdrSize)
	if binary.LittleEndian.Uint32(hdr) != txMagic {
		return 0, 0, 0, false
	}
	txid = binary.LittleEndian.Uint64(hdr[8:])
	tag = binary.LittleEndian.Uint64(hdr[16:])
	bodyLen := int64(binary.LittleEndian.Uint64(hdr[24:]))
	if bodyLen < 0 || pos+txHdrSize+bodyLen+txCommitSize > f.pm.Size() {
		return 0, 0, 0, false
	}
	if f.txid != 0 && txid != f.txid {
		return 0, 0, 0, false
	}
	if f.txid == 0 && txid == 0 {
		return 0, 0, 0, false
	}
	body := f.pm.Load(pos+txHdrSize, int(bodyLen))
	commit := f.pm.Load(pos+txHdrSize+bodyLen, txCommitSize)
	if binary.LittleEndian.Uint32(commit) != commitMagic ||
		binary.LittleEndian.Uint64(commit[8:]) != txid ||
		binary.LittleEndian.Uint32(commit[4:]) != crc32.Checksum(body, castagnoli) {
		return 0, 0, 0, false
	}
	f.applyBody(body)
	return txid, tag, pos + txHdrSize + bodyLen + txCommitSize, true
}

func (f *FS) applyBody(body []byte) {
	for i := 0; i < len(body); {
		switch body[i] {
		case recNode:
			i++
			ino := binary.LittleEndian.Uint64(body[i:])
			i += 8
			typ := vfs.FileType(body[i])
			i++
			nlink := binary.LittleEndian.Uint32(body[i:])
			i += 4
			n := &node{ino: ino, typ: typ, nlink: nlink}
			xcnt := int(binary.LittleEndian.Uint32(body[i:]))
			i += 4
			if xcnt > 0 {
				n.xattrs = map[string]string{}
			}
			for x := 0; x < xcnt; x++ {
				nl := int(body[i])
				i++
				name := string(body[i : i+nl])
				i += nl
				vl := int(binary.LittleEndian.Uint32(body[i:]))
				i += 4
				n.xattrs[name] = string(body[i : i+vl])
				i += vl
			}
			if typ == vfs.TypeRegular {
				dataLen := int(binary.LittleEndian.Uint64(body[i:]))
				i += 8
				// An alias of the read arena, not a copy: the instance
				// lives for one mount at a time — Mount and Remount drop
				// every node before they read the image again — and no
				// write lands in place.
				n.data = body[i : i+dataLen : i+dataLen]
				i += dataLen
			} else {
				n.children = map[string]uint64{}
				cnt := int(binary.LittleEndian.Uint32(body[i:]))
				i += 4
				for c := 0; c < cnt; c++ {
					nl := int(body[i])
					i++
					name := string(body[i : i+nl])
					i += nl
					n.children[name] = binary.LittleEndian.Uint64(body[i:])
					i += 8
				}
			}
			f.nodes[ino] = n
		case recDelete:
			i++
			ino := binary.LittleEndian.Uint64(body[i:])
			i += 8
			delete(f.nodes, ino)
		default:
			return
		}
	}
}

func appendU64(b []byte, v uint64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	return append(b, tmp[:]...)
}

func appendU32(b []byte, v uint32) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	return append(b, tmp[:]...)
}

var (
	_ vfs.FS        = (*FS)(nil)
	_ vfs.Forker    = (*FS)(nil)
	_ vfs.Remounter = (*FS)(nil)
)

// OpenFDs implements vfs.FDCounter.
func (f *FS) OpenFDs() int { return f.descs.OpenFDs() }
