package inplace

import (
	"encoding/binary"

	"chipmunk/internal/persist"
)

// The redo ring both in-place systems journal metadata through. A ring
// starts a journal block: a head word, a tail word, then a record area
// that records wrap around byte-wise. Head and tail are monotonically
// increasing region offsets (RingStart when empty), mapped into the area
// modulo its size, and [head, tail) is the committed window recovery
// re-applies: redo is idempotent and ordered, so re-applying records
// already in place is safe. A record is {target u64, len u64, data padded
// to 8 bytes}. When the head moves, and what frames a transaction's
// records, is each host's policy.
const (
	// RingHeadOff and RingTailOff locate the head and tail words from a
	// ring's base; records start at region offset RingStart.
	RingHeadOff = 0
	RingTailOff = 8
	RingStart   = 16
	// RecHdrSize is a record's {target, len} header; its data follows.
	RecHdrSize = 16
	// RecDataMax bounds one record's data.
	RecDataMax = 128
)

// Rec is one redo record: Data belongs at device offset Off.
type Rec struct {
	Off  int64
	Data []byte
}

// Redo is a transaction's records in commit order. Set copies their data
// into an arena, which Reset empties for the next transaction.
type Redo struct {
	Recs  []Rec
	arena []byte
}

// Reset drops every record, keeping the storage.
func (t *Redo) Reset() { t.Recs, t.arena = t.Recs[:0], t.arena[:0] }

// Set appends a record holding a copy of data.
func (t *Redo) Set(off int64, data []byte) {
	if len(data) > RecDataMax {
		panic("inplace: redo record too large")
	}
	n := len(t.arena)
	t.arena = append(t.arena, data...)
	t.Recs = append(t.Recs, Rec{off, t.arena[n:len(t.arena):len(t.arena)]})
}

// Size returns the ring bytes the records take.
func (t *Redo) Size() int64 {
	n := int64(0)
	for _, r := range t.Recs {
		n += RecSize(len(r.Data))
	}
	return n
}

// Apply writes every record in place, flushed and not fenced.
func (t *Redo) Apply(pm *persist.PM) {
	for _, r := range t.Recs {
		pm.PersistStore(r.Off, r.Data)
	}
}

// RecSize returns the ring bytes of a record holding n data bytes.
func RecSize(n int) int64 { return RecHdrSize + int64((n+7)&^7) }

// Ring is one redo ring: Size bytes of PM from device offset Base, head
// and tail words included. Tail mirrors the tail word in DRAM.
type Ring struct {
	PM   *persist.PM
	Base int64
	Size int64
	Tail int64
}

// Room returns the bytes of the record area.
func (g *Ring) Room() int64 { return g.Size - RingStart }

// Dev maps region offset pos to its device offset.
func (g *Ring) Dev(pos int64) int64 { return g.Base + RingStart + (pos-RingStart)%g.Room() }

// Format empties the ring: head and tail words at RingStart, flushed and
// not fenced.
func (g *Ring) Format() {
	g.Tail = RingStart
	g.PM.Store64(g.Base+RingHeadOff, RingStart)
	g.PM.Store64(g.Base+RingTailOff, RingStart)
	g.PM.Flush(g.Base, 16)
}

// Store writes data at region offset pos, wrapping byte-wise at the end
// of the area; each contiguous run is flushed, none fenced.
func (g *Ring) Store(pos int64, data []byte) {
	for i := 0; i < len(data); {
		dev := g.Dev(pos + int64(i))
		n := min(len(data)-i, int(g.Base+g.Size-dev))
		g.PM.PersistStore(dev, data[i:i+n])
		i += n
	}
}

// LoadInto reads len(dst) bytes at region offset pos into dst, wrapping
// like Store.
func (g *Ring) LoadInto(pos int64, dst []byte) {
	for i := 0; i < len(dst); {
		dev := g.Dev(pos + int64(i))
		n := min(len(dst)-i, int(g.Base+g.Size-dev))
		g.PM.LoadInto(dev, dst[i:i+n])
		i += n
	}
}

// Append writes r at region offset pos, flushed and not fenced, and
// returns the region offset past it.
func (g *Ring) Append(pos int64, r Rec) int64 {
	var hdr [RecHdrSize]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(r.Off))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(r.Data)))
	g.Store(pos, hdr[:])
	var padded [RecDataMax]byte
	n := RecSize(len(r.Data)) - RecHdrSize
	copy(padded[:], r.Data)
	g.Store(pos+RecHdrSize, padded[:n])
	return pos + RecSize(len(r.Data))
}

// Header reads the header of the record at region offset pos: its target
// and data length, unchecked. The data is at pos+RecHdrSize and the next
// record at pos+RecSize(n).
func (g *Ring) Header(pos int64) (target int64, n int) {
	var hdr [RecHdrSize]byte
	g.LoadInto(pos, hdr[:])
	return int64(binary.LittleEndian.Uint64(hdr[:])), int(binary.LittleEndian.Uint64(hdr[8:]))
}
