package pmfs

import "chipmunk/internal/vfs"

// blockAlloc is the DRAM-only free-block list. PMFS famously keeps it in
// DRAM and rebuilds it at mount by scanning inode block pointers; bug 13
// is the truncate-list replay touching it before that rebuild has happened.
type blockAlloc struct {
	used  []bool
	start uint64
	total uint64
	hint  uint64
}

func newBlockAlloc(start, total uint64) *blockAlloc {
	return &blockAlloc{used: make([]bool, total), start: start, total: total, hint: start}
}

func (a *blockAlloc) alloc() (uint64, error) {
	for i := uint64(0); i < a.total-a.start; i++ {
		b := a.start + (a.hint-a.start+i)%(a.total-a.start)
		if !a.used[b] {
			a.used[b] = true
			a.hint = b + 1
			return b, nil
		}
	}
	return 0, vfs.ErrNoSpace
}

func (a *blockAlloc) markUsed(b uint64) bool {
	if b < a.start || b >= a.total || a.used[b] {
		return false
	}
	a.used[b] = true
	return true
}

func (a *blockAlloc) release(b uint64) bool {
	if b < a.start || b >= a.total || !a.used[b] {
		return false
	}
	a.used[b] = false
	return true
}

func (a *blockAlloc) freeBlocks() int {
	n := 0
	for b := a.start; b < a.total; b++ {
		if !a.used[b] {
			n++
		}
	}
	return n
}
