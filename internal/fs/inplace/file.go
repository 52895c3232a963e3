package inplace

import (
	"math/bits"

	"chipmunk/internal/bugs"
	"chipmunk/internal/vfs"
)

// Pread implements vfs.FS.
func (f *FS) Pread(fd vfs.FD, buf []byte, off int64) (int, error) {
	d, err := f.Descs.Get(fd)
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	if off >= d.Size {
		return 0, nil
	}
	n := min(int64(len(buf)), d.Size-off)
	for pos := off; pos < off+n; {
		i := int(pos / BlockSize)
		blkStart := int64(i) * BlockSize
		chunk := min(blkStart+BlockSize, off+n) - pos
		if b := d.Blocks[i]; b != 0 {
			f.PM.LoadInto(BlockOff(b)+(pos-blkStart), buf[pos-off:pos-off+chunk])
		} else {
			clear(buf[pos-off : pos-off+chunk])
		}
		pos += chunk
	}
	return int(n), nil
}

// Truncate implements vfs.FS. A shrink commits the new size and block
// pointers first and frees the blocks beyond it after, inside the host's
// Freeing/Freed bracket.
func (f *FS) Truncate(path string, size int64) error {
	defer f.Host.EndOp()
	if size < 0 {
		return vfs.ErrInvalid
	}
	if size > MaxFileSize {
		return vfs.ErrNoSpace
	}
	d, err := f.Lookup(path)
	if err != nil {
		return err
	}
	if d.Type == vfs.TypeDir {
		return vfs.ErrIsDir
	}
	if size == d.Size {
		return nil
	}
	if size > d.Size {
		d.Size = size
		t := f.Begin()
		f.SetInode(t, d)
		t.Commit()
		return nil
	}

	f.Host.Freeing(d.Ino)
	oldBlocks := d.Blocks
	firstDead := int((size + BlockSize - 1) / BlockSize)
	for i := firstDead; i < NDirect; i++ {
		d.Blocks[i] = 0
	}
	d.Size = size
	t := f.Begin()
	f.SetInode(t, d)
	t.Commit()

	// Zero the tail remainder so a later extension reads zeros (beyond the
	// committed size, hence crash-invisible).
	if rem := size % BlockSize; rem != 0 && d.Blocks[size/BlockSize] != 0 {
		f.PM.MemsetNT(BlockOff(d.Blocks[size/BlockSize])+rem, 0, int(BlockSize-rem))
		f.PM.Fence()
	}
	for i := firstDead; i < NDirect; i++ {
		if oldBlocks[i] != 0 {
			f.Pool.Release(oldBlocks[i])
		}
	}
	f.Host.Freed()
	return nil
}

// Span resolves a data operation's descriptor and the range [off, off+n)
// it covers, returning the range's end: a negative offset or length is
// ErrInvalid, and a non-empty range past MaxFileSize ErrNoSpace.
func (f *FS) Span(fd vfs.FD, off, n int64) (*Inode, int64, error) {
	d, err := f.Descs.Get(fd)
	switch {
	case err != nil:
		return nil, 0, err
	case off < 0 || n < 0:
		return nil, 0, vfs.ErrInvalid
	case n > 0 && off+n > MaxFileSize:
		return nil, 0, vfs.ErrNoSpace
	}
	return d, off + n, nil
}

// Pwrite implements vfs.FS: PMFS's in-place write, which WineFS's relaxed
// mode inherits. The new blocks and size commit first (extend); the data
// is then streamed in place with non-temporal stores and fenced, so a
// crash can tear a write (Caps.AtomicWrite is false).
//
// Bug 14&15: the final extent's data is not fenced before returning, so the
// write is not synchronous. Bug 17&18: the non-temporal copy helper's fast
// path fences the 8-byte-aligned body but not the sub-word tail of
// unaligned writes.
func (f *FS) Pwrite(fd vfs.FD, data []byte, off int64) (int, error) {
	defer f.Host.EndOp()
	d, end, err := f.Span(fd, off, int64(len(data)))
	if err != nil || end == off {
		return 0, err
	}
	if err := f.extend(d, off, end); err != nil {
		return 0, err
	}
	lastBlk := int((end - 1) / BlockSize)
	for i := int(off / BlockSize); i <= lastBlk; i++ {
		blkStart := int64(i) * BlockSize
		from := max(off, blkStart)
		to := min(end, blkStart+BlockSize)
		chunk := data[from-off : to-off]
		dst := BlockOff(d.Blocks[i]) + (from - blkStart)
		last := i == lastBlk

		switch {
		case last && f.Bugs.Has(bugs.NTTailNotFenced) && len(chunk)%8 != 0:
			// Fast-path copy: fence the aligned body, forget the tail.
			body := len(chunk) &^ 7
			if body > 0 {
				f.PM.MemcpyNT(dst, chunk[:body])
			}
			f.PM.Fence()
			f.PM.MemcpyNT(dst+int64(body), chunk[body:])
			// Missing fence: the sub-word tail stays in flight.
		case last && f.Bugs.Has(bugs.WriteNotSync):
			// Missing fence on the final extent: write not synchronous.
			f.PM.MemcpyNT(dst, chunk)
		default:
			f.PM.MemcpyNT(dst, chunk)
			if last {
				f.PM.Fence()
			}
		}
	}
	return len(data), nil
}

// Fallocate implements vfs.FS: allocate blocks and extend the size.
func (f *FS) Fallocate(fd vfs.FD, off, length int64) error {
	defer f.Host.EndOp()
	d, end, err := f.Span(fd, off, length)
	if err == nil && end == off {
		err = vfs.ErrInvalid
	}
	if err != nil {
		return err
	}
	return f.extend(d, off, end)
}

// extend gives d a block under every byte of [off, end) and a size of at
// least end. The blocks it takes from the host's data allocator are zeroed
// and fenced before the new pointers and size commit together. When the
// pool runs dry it releases every block it took, leaving d as it was.
func (f *FS) extend(d *Inode, off, end int64) error {
	var fresh uint16 // bit i: this call set d.Blocks[i] (NDirect is 12)
	for i := int(off / BlockSize); i <= int((end-1)/BlockSize); i++ {
		if d.Blocks[i] != 0 {
			continue
		}
		nb, err := f.Host.AllocData()
		if err != nil {
			for ; fresh != 0; fresh &= fresh - 1 {
				j := bits.TrailingZeros16(fresh)
				f.Pool.Release(d.Blocks[j])
				d.Blocks[j] = 0
			}
			return err
		}
		f.PM.MemsetNT(BlockOff(nb), 0, BlockSize)
		d.Blocks[i] = nb
		fresh |= 1 << i
	}
	if fresh == 0 && end <= d.Size {
		return nil
	}
	if fresh != 0 {
		f.PM.Fence()
	}
	d.Size = max(d.Size, end)
	t := f.Begin()
	f.SetInode(t, d)
	t.Commit()
	return nil
}
