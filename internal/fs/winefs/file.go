package winefs

import (
	"chipmunk/internal/bugs"
	"chipmunk/internal/fs/inplace"
	"chipmunk/internal/pmem"
	"chipmunk/internal/vfs"
)

// Pwrite implements vfs.FS.
//
// Strict mode (the default) makes data writes crash-atomic: new blocks are
// built copy-on-write and published by the journaled block-pointer/size
// update. Relaxed mode writes in place: PMFS's write, shared through
// inplace, as is Fallocate in both modes.
//
// Injected bugs: 14&15 skip the data fence before the publish; 17&18 leave
// the sub-word tail of unaligned writes unfenced; 20 is the strict-mode
// fast path that modifies an existing block in place (two fences apart)
// when the write starts at a sub-cache-line offset, breaking atomicity.
func (f *FS) Pwrite(fd vfs.FD, data []byte, off int64) (int, error) {
	if f.mode == Relaxed {
		return f.FS.Pwrite(fd, data, off)
	}
	defer f.nextOp()
	d, end, err := f.Span(fd, off, int64(len(data)))
	if err != nil || end == off {
		return 0, err
	}
	return f.pwriteStrict(d, data, off, end)
}

// pwriteStrict is the copy-on-write path.
func (f *FS) pwriteStrict(d *inplace.Inode, data []byte, off, end int64) (int, error) {
	firstBlk := int(off / BlockSize)
	lastBlk := int((end - 1) / BlockSize)
	newSize := d.Size
	if end > newSize {
		newSize = end
	}

	// Bug 20: single-block extending writes at a sub-cache-line offset take
	// a "fast publish" path that pushes the block pointer and the new size
	// through the mini-journal WITHOUT the fence between the records and
	// the commit word. The data pages themselves are built correctly, but a
	// crash can commit the size record without the pointer record — the
	// extended range then reads zeros: the write was not atomic. Exposing
	// it requires replaying exactly two in-flight writes (the size record
	// and the commit), the "one bug needs two writes" of Observation 7.
	if f.Bugs.Has(bugs.WinefsStrictInPlace) && off%pmem.CacheLineSize != 0 &&
		firstBlk == lastBlk && end > d.Size {
		nb, err := f.Host.AllocData()
		if err != nil {
			return 0, err
		}
		var content [BlockSize]byte
		if old := d.Blocks[firstBlk]; old != 0 {
			f.PM.LoadInto(inplace.BlockOff(old), content[:])
		}
		blkStart := int64(firstBlk) * BlockSize
		copy(content[off-blkStart:], data)
		f.PM.MemcpyNT(inplace.BlockOff(nb), content[:])
		f.PM.Fence()

		old := d.Blocks[firstBlk]
		d.Blocks[firstBlk] = nb
		d.Size = end
		f.fastPublish(f.InodeOff(d.Ino)+inplace.InoBlocksOff+int64(firstBlk)*8, nb,
			f.InodeOff(d.Ino)+inplace.InoSizeOff, uint64(end))
		if old != 0 {
			f.Pool.Release(old)
		}
		return len(data), nil
	}

	// Every new block is built before the first is streamed. A one-block
	// write builds it on the stack; pending holds no pointer into it.
	type pending struct {
		idx   int
		block uint64
	}
	var pend []pending
	var one [BlockSize]byte
	contents := one[:]
	if lastBlk > firstBlk {
		contents = make([]byte, (lastBlk-firstBlk+1)*BlockSize)
	}
	content := func(i int) []byte { return contents[(i-firstBlk)*BlockSize:][:BlockSize] }
	for i := firstBlk; i <= lastBlk; i++ {
		nb, err := f.Host.AllocData()
		if err != nil {
			for _, p := range pend {
				f.Pool.Release(p.block)
			}
			return 0, err
		}
		if old := d.Blocks[i]; old != 0 {
			f.PM.LoadInto(inplace.BlockOff(old), content(i))
		}
		blkStart := int64(i) * BlockSize
		from := max(off, blkStart)
		to := min(end, blkStart+BlockSize)
		copy(content(i)[from-blkStart:], data[from-off:to-off])
		pend = append(pend, pending{i, nb})
	}

	// Stream the new blocks; the publish must not overtake the data.
	for pi, p := range pend {
		last := pi == len(pend)-1
		dst := inplace.BlockOff(p.block)
		c := content(p.idx)
		switch {
		case last && f.Bugs.Has(bugs.NTTailNotFenced) && int(end)%8 != 0:
			// The copy helper fences the aligned body only.
			valid := int(end - int64(p.idx)*BlockSize)
			body := valid &^ 7
			f.PM.MemcpyNT(dst, c[:body])
			f.PM.Fence()
			f.PM.MemcpyNT(dst+int64(body), c[body:])
			// Missing fence for the tail.
		case last && f.Bugs.Has(bugs.WriteNotSync):
			// Missing fence: the publish below can land without the data.
			f.PM.MemcpyNT(dst, c)
		default:
			f.PM.MemcpyNT(dst, c)
			if last {
				f.PM.Fence()
			}
		}
	}

	// Publish atomically via the journal.
	var olds []uint64
	for _, p := range pend {
		if old := d.Blocks[p.idx]; old != 0 {
			olds = append(olds, old)
		}
		d.Blocks[p.idx] = p.block
	}
	d.Size = newSize
	t := f.Begin()
	f.SetInode(t, d)
	t.Commit()
	for _, b := range olds {
		f.Pool.Release(b)
	}
	return int(end - off), nil
}
