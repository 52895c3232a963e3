package pmfs

import (
	"chipmunk/internal/bugs"
	"chipmunk/internal/fs/inplace"
	"chipmunk/internal/vfs"
)

// Pwrite implements vfs.FS.
//
// PMFS writes file data in place with non-temporal stores, so a crash can
// tear a write (data writes are not atomic — Caps.AtomicWrite is false).
// Metadata (new block pointers, the size) commits first via the journal;
// data is then streamed and fenced.
//
// Bug 14&15: the final extent's data is not fenced before returning, so the
// write is not synchronous. Bug 17&18: the non-temporal copy helper's fast
// path fences the 8-byte-aligned body but not the sub-word tail of
// unaligned writes.
func (f *FS) Pwrite(fd vfs.FD, data []byte, off int64) (int, error) {
	d, err := f.Descs.Get(fd)
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	if len(data) == 0 {
		return 0, nil
	}
	end := off + int64(len(data))
	if end > MaxFileSize {
		return 0, vfs.ErrNoSpace
	}

	// Phase 1: allocate missing blocks and commit metadata.
	firstBlk := int(off / BlockSize)
	lastBlk := int((end - 1) / BlockSize)
	metaDirty := false
	var fresh []uint64
	for i := firstBlk; i <= lastBlk; i++ {
		if d.Blocks[i] != 0 {
			continue
		}
		nb, err := f.alloc.Next()
		if err != nil {
			for _, b := range fresh {
				f.alloc.Release(b)
			}
			return 0, err
		}
		f.PM.MemsetNT(inplace.BlockOff(nb), 0, BlockSize)
		d.Blocks[i] = nb
		fresh = append(fresh, nb)
		metaDirty = true
	}
	if len(fresh) > 0 {
		f.PM.Fence()
	}
	if end > d.Size {
		d.Size = end
		metaDirty = true
	}
	if metaDirty {
		t := f.Begin()
		f.SetInode(t, d)
		t.Commit()
	}

	// Phase 2: stream the data in place.
	for i := firstBlk; i <= lastBlk; i++ {
		blkStart := int64(i) * BlockSize
		from := max(off, blkStart)
		to := min(end, blkStart+BlockSize)
		chunk := data[from-off : to-off]
		dst := inplace.BlockOff(d.Blocks[i]) + (from - blkStart)
		last := i == lastBlk

		switch {
		case last && f.has(bugs.NTTailNotFenced) && len(chunk)%8 != 0:
			// Fast-path copy: fence the aligned body, forget the tail.
			body := len(chunk) &^ 7
			if body > 0 {
				f.PM.MemcpyNT(dst, chunk[:body])
			}
			f.PM.Fence()
			f.PM.MemcpyNT(dst+int64(body), chunk[body:])
			// Missing fence: the sub-word tail stays in flight.
		case last && f.has(bugs.WriteNotSync):
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
	d, err := f.Descs.Get(fd)
	if err != nil {
		return err
	}
	if off < 0 || length <= 0 {
		return vfs.ErrInvalid
	}
	end := off + length
	if end > MaxFileSize {
		return vfs.ErrNoSpace
	}
	metaDirty := false
	var fresh []uint64
	for i := int(off / BlockSize); i <= int((end-1)/BlockSize); i++ {
		if d.Blocks[i] != 0 {
			continue
		}
		nb, err := f.alloc.Next()
		if err != nil {
			for _, b := range fresh {
				f.alloc.Release(b)
			}
			return err
		}
		f.PM.MemsetNT(inplace.BlockOff(nb), 0, BlockSize)
		d.Blocks[i] = nb
		fresh = append(fresh, nb)
		metaDirty = true
	}
	if len(fresh) > 0 {
		f.PM.Fence()
	}
	if end > d.Size {
		d.Size = end
		metaDirty = true
	}
	if metaDirty {
		t := f.Begin()
		f.SetInode(t, d)
		t.Commit()
	}
	return nil
}
