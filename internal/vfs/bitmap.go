package vfs

import (
	"math/bits"
	"slices"
)

// Bitmap is the DRAM free map every guest model keeps over one pool of
// units — pages, blocks or inode slots — numbered [lo, hi). The models
// keep allocator state volatile and rebuild it at mount from what the
// image references (§5.1 Observation 3), so a rebuild claims each unit
// through Claim, which refuses a unit referenced twice.
type Bitmap struct {
	words  []uint64 // bit u is set while unit u is in use
	lo, hi uint64
	hint   uint64 // where Next resumes its search
}

// NewBitmap returns a bitmap over [lo, hi) with every unit free.
func NewBitmap(lo, hi uint64) *Bitmap {
	return &Bitmap{words: make([]uint64, (hi+63)/64), lo: lo, hi: hi, hint: lo}
}

// Reset returns a bitmap over [lo, hi) with every unit free: b itself,
// emptied and reusing its words, or a new one when b is nil. Reset(0, 0)
// leaves a bitmap no unit can be claimed from.
func (b *Bitmap) Reset(lo, hi uint64) *Bitmap {
	if b == nil {
		return NewBitmap(lo, hi)
	}
	n := int((hi + 63) / 64)
	b.words = slices.Grow(b.words[:0], n)[:n]
	clear(b.words)
	b.lo, b.hi, b.hint = lo, hi, lo
	return b
}

func (b *Bitmap) set(u uint64)   { b.words[u/64] |= 1 << (u % 64) }
func (b *Bitmap) clear(u uint64) { b.words[u/64] &^= 1 << (u % 64) }
func (b *Bitmap) isSet(u uint64) bool {
	return b.words[u/64]&(1<<(u%64)) != 0
}

// Next claims the first free unit at or after the one past the last unit
// Next returned, wrapping once around the pool: next fit.
func (b *Bitmap) Next() (uint64, error) {
	n := b.hi - b.lo
	for i := uint64(0); i < n; i++ {
		u := b.lo + (b.hint-b.lo+i)%n
		if !b.isSet(u) {
			b.set(u)
			b.hint = u + 1
			return u, nil
		}
	}
	return 0, ErrNoSpace
}

// Lowest claims the lowest free unit.
func (b *Bitmap) Lowest() (uint64, error) {
	for u := b.lo; u < b.hi; u++ {
		if !b.isSet(u) {
			b.set(u)
			return u, nil
		}
	}
	return 0, ErrNoSpace
}

// Highest claims the highest free unit.
func (b *Bitmap) Highest() (uint64, error) {
	for u := b.hi; u > b.lo; u-- {
		if !b.isSet(u - 1) {
			b.set(u - 1)
			return u - 1, nil
		}
	}
	return 0, ErrNoSpace
}

// Claim marks unit u in use. It reports false, changing nothing, when u
// lies outside the pool or is in use already.
func (b *Bitmap) Claim(u uint64) bool {
	if u < b.lo || u >= b.hi || b.isSet(u) {
		return false
	}
	b.set(u)
	return true
}

// Release frees unit u. It reports false, changing nothing, when u lies
// outside the pool or is free already (a double free).
func (b *Bitmap) Release(u uint64) bool {
	if !b.Used(u) {
		return false
	}
	b.clear(u)
	return true
}

// Used reports whether unit u lies in the pool and is in use.
func (b *Bitmap) Used(u uint64) bool { return u >= b.lo && u < b.hi && b.isSet(u) }

// NextUsed returns the lowest unit at or after u that is in use, and
// false when there is none.
func (b *Bitmap) NextUsed(u uint64) (uint64, bool) {
	for u < b.hi {
		if w := b.words[u/64] >> (u % 64); w != 0 {
			return u + uint64(bits.TrailingZeros64(w)), true
		}
		u = u/64*64 + 64
	}
	return 0, false
}

// Free counts the free units.
func (b *Bitmap) Free() int {
	used := 0
	for _, w := range b.words {
		used += bits.OnesCount64(w)
	}
	return int(b.hi-b.lo) - used
}

// Clone returns an independent copy.
func (b *Bitmap) Clone() *Bitmap {
	c := *b
	c.words = slices.Clone(b.words)
	return &c
}
