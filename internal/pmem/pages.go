package pmem

// PageSize is the granularity of page tracking: the 4 KiB x86 base page.
const PageSize = 4096

// PageSet is a bitmap over the 4 KiB pages of one device-sized buffer. Its
// owner keeps the invariant that every byte of the buffer outside a set page
// is zero, so clearing the buffer, or copying another buffer into it, costs
// only the pages either may hold non-zero bytes on — not the device. A size
// that is not a multiple of PageSize has a partial last page, which every
// operation clamps to the size.
type PageSet struct {
	bits []uint64
	size int64
}

// NewPageSet returns an empty set over a buffer of size bytes.
func NewPageSet(size int64) *PageSet {
	pages := (size + PageSize - 1) / PageSize
	return &PageSet{bits: make([]uint64, (pages+63)/64), size: size}
}

// Mark adds the pages covering [off, off+n).
func (s *PageSet) Mark(off int64, n int) {
	if n <= 0 {
		return
	}
	for p := off / PageSize; p <= (off+int64(n)-1)/PageSize; p++ {
		s.bits[p/64] |= 1 << (p % 64)
	}
}

// Assign makes s a copy of o, a set over a buffer of the same size.
func (s *PageSet) Assign(o *PageSet) { copy(s.bits, o.bits) }

// Clear zeroes the set's pages in every buffer it tracks and empties the
// set: afterwards each buffer is zero throughout.
func (s *PageSet) Clear(bufs ...[]byte) {
	s.Runs(nil, func(lo, hi int64) {
		for _, b := range bufs {
			clear(b[lo:hi])
		}
	})
	clear(s.bits)
}

// Copy makes dst, the buffer s tracks, equal to src, the buffer o tracks,
// and then makes s a copy of o. Only pages in s ∪ o are copied: outside
// them both buffers are zero already. It returns the bytes copied.
func (s *PageSet) Copy(dst, src []byte, o *PageSet) int64 {
	var n int64
	s.Runs(o, func(lo, hi int64) {
		copy(dst[lo:hi], src[lo:hi])
		n += hi - lo
	})
	s.Assign(o)
	return n
}

// Covers reports whether buf is zero outside the set's pages: the invariant
// Clear and Copy rely on.
func (s *PageSet) Covers(buf []byte) bool {
	var lo int64
	zero := true
	s.Runs(nil, func(runLo, runHi int64) {
		zero = zero && allZero(buf[lo:runLo])
		lo = runHi
	})
	return zero && allZero(buf[lo:])
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// Runs calls fn for each maximal run of pages in s ∪ o (o may be nil) as
// the byte range [lo, hi), in ascending order.
func (s *PageSet) Runs(o *PageSet, fn func(lo, hi int64)) {
	start := int64(-1)
	for i, w := range s.bits {
		if o != nil {
			w |= o.bits[i]
		}
		if (w == 0 && start < 0) || (w == ^uint64(0) && start >= 0) {
			continue
		}
		for b := int64(0); b < 64; b++ {
			p := int64(i)*64 + b
			switch {
			case w&(1<<b) != 0 && start < 0:
				start = p
			case w&(1<<b) == 0 && start >= 0:
				fn(start*PageSize, min(p*PageSize, s.size))
				start = -1
			}
		}
	}
	if start >= 0 {
		fn(start*PageSize, s.size)
	}
}
