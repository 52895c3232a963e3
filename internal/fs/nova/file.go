package nova

import (
	"chipmunk/internal/bugs"
	"chipmunk/internal/vfs"
)

// zeroPage is the content of a page fallocate zeroes.
var zeroPage [PageSize]byte

// maxFileSize bounds file growth so fuzzer-generated offsets cannot exhaust
// the pool (cf. the paper's §4.4 non-crash-consistency finding that NOVA
// mishandled enormous write sizes).
const maxFileSize = 1 << 20

// csumOff returns the device offset of the Fortis data checksum for pool
// page p.
func csumOff(p uint64) int64 {
	return int64(csumTablePage)*PageSize + int64(p)*4
}

// writePageCsum stores the Fortis checksum for a data page (flushed, not
// fenced — callers batch the fence).
func (f *FS) writePageCsum(poolPage uint64, content []byte) {
	if !f.fortis {
		return
	}
	f.pm.Store32(csumOff(poolPage), f.csumCopy(content))
	f.pm.Flush(csumOff(poolPage), 4)
}

// verifyPageCsum checks a data page against its Fortis checksum.
func (f *FS) verifyPageCsum(poolPage uint64) bool {
	if !f.fortis {
		return true
	}
	content := f.pm.Load(pageOff(poolPage), PageSize)
	return csum32(content) == f.pm.Load32(csumOff(poolPage))
}

// Pwrite implements vfs.FS.
//
// NOVA data writes are copy-on-write at page granularity: fresh pages are
// filled with non-temporal stores and published atomically by the tail
// update, making multi-page writes crash-atomic. Old pages are freed in
// DRAM only after the publish.
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
	if end > maxFileSize {
		return 0, vfs.ErrNoSpace
	}
	newSize := d.Size
	if end > newSize {
		newSize = end
	}

	firstPage := uint64(off / PageSize)
	lastPage := uint64((end - 1) / PageSize)

	// Phase 1: build the new data pages with NT stores. The staging page
	// is on the stack: PM and the trace copy the bytes they keep.
	type pendingPage struct {
		filePage uint64
		poolPage uint64
	}
	var pend []pendingPage
	var content [PageSize]byte
	for fp := firstPage; fp <= lastPage; fp++ {
		np, err := f.alloc.Next()
		if err != nil {
			for _, p := range pend {
				f.alloc.Release(p.poolPage)
			}
			return 0, err
		}
		if old, ok := d.pages[fp]; ok {
			f.pm.LoadInto(pageOff(old), content[:])
		} else {
			clear(content[:])
		}
		pageStart := int64(fp) * PageSize
		from := max(off, pageStart)
		to := min(end, pageStart+PageSize)
		copy(content[from-pageStart:], data[from-off:to-off])
		f.pm.MemcpyNT(pageOff(np), content[:])
		f.writePageCsum(np, content[:])
		pend = append(pend, pendingPage{fp, np})
	}
	f.pm.Fence()

	// Phase 2: append one write entry per page.
	entries := make([]entry, len(pend))
	for i, p := range pend {
		entries[i] = entry{typ: etWrite, filePage: p.filePage, poolPage: p.poolPage, sizeHint: uint64(newSize)}
	}

	if f.has(bugs.NovaEntryAfterTail) {
		// Bug 3: publish the final tail first, then write the entries.
		tail := d.tail
		offs := make([]int64, len(entries))
		raws := make([][EntrySize]byte, len(entries))
		for i, e := range entries {
			raw := e.encode()
			f.finishEncode(&raw, false)
			var err error
			offs[i], tail, err = f.reserveSlot(d, tail)
			if err != nil {
				return 0, err
			}
			raws[i] = raw
		}
		d.tail = tail
		f.syncInode(d, true)
		for i := range raws {
			f.writeEntry(offs[i], &raws[i])
		}
		f.pm.Fence()
	} else {
		tail := d.tail
		for _, e := range entries {
			var err error
			_, tail, err = f.writeEntryNoPublish(d, tail, e, false)
			if err != nil {
				return 0, err
			}
		}
		d.tail = tail
		f.syncInode(d, true)
	}

	// Phase 3: DRAM state and old-page reclamation.
	for _, p := range pend {
		if old, ok := d.pages[p.filePage]; ok {
			f.alloc.Release(old)
		}
		d.pages[p.filePage] = p.poolPage
	}
	d.Size = newSize
	f.endOp()
	f.maybeGC(d)
	return len(data), nil
}

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
	n := int64(len(buf))
	if off+n > d.Size {
		n = d.Size - off
	}
	for pos := off; pos < off+n; {
		fp := uint64(pos / PageSize)
		pageStart := int64(fp) * PageSize
		chunk := min(pageStart+PageSize, off+n) - pos
		if pp, ok := d.pages[fp]; ok {
			if !f.verifyPageCsum(pp) {
				return 0, vfs.ErrIO
			}
			f.pm.LoadInto(pageOff(pp)+(pos-pageStart), buf[pos-off:pos-off+chunk])
		} else {
			clear(buf[pos-off : pos-off+chunk])
		}
		pos += chunk
	}
	return int(n), nil
}

// Truncate implements vfs.FS.
//
// Shrinks publish an attr entry (or, in fixed Fortis mode, a CoW write
// entry for a partial tail page), then invalidate the write entries fully
// beyond the new size and zero the tail remainder. Bug 7 also invalidates
// the entry that straddles the new size, so the rebuild loses data below
// it. Bugs 11 and 12 live in the Fortis variant (persistent free-log and
// late checksum).
func (f *FS) Truncate(path string, size int64) error {
	if size < 0 {
		return vfs.ErrInvalid
	}
	if size > maxFileSize {
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
		// Extension: a single attr entry.
		if _, err := f.appendEntry(d, entry{typ: etAttr, size: uint64(size)}, false, true); err != nil {
			return err
		}
		d.Size = size
		f.endOp()
		return nil
	}
	return f.truncateShrink(d, size)
}

func (f *FS) truncateShrink(d *dnode, size int64) error {
	oldSize := d.Size

	// Pages fully beyond the new size will be freed. Collected in file-page
	// order: the list lands on PM via the Fortis free-log, so its order is
	// image content, not a DRAM detail.
	var freed []uint64
	firstDead := uint64((size + PageSize - 1) / PageSize)
	for _, fp := range sortedKeys(d.pages) {
		if fp >= firstDead {
			freed = append(freed, d.pages[fp])
		}
	}

	// Bug 11 (Fortis): persist the page numbers about to be freed in a
	// free-log before the truncate commits; recovery replays it against an
	// allocator that has already reclaimed them.
	if f.fortis && f.has(bugs.FortisDoubleFree) && len(freed) > 0 {
		f.writeFreeLog(freed)
	}

	tailPage := uint64(size / PageSize)
	tailLen := int(size % PageSize)
	tailMapped := false
	if tailLen > 0 {
		_, tailMapped = d.pages[tailPage]
	}

	switch {
	case f.fortis && tailMapped && !f.has(bugs.FortisCsumStaleData):
		// Fixed Fortis: CoW the partial tail page so data and checksum are
		// published together.
		np, err := f.alloc.Next()
		if err != nil {
			return err
		}
		var content [PageSize]byte
		f.pm.LoadInto(pageOff(d.pages[tailPage]), content[:])
		clear(content[tailLen:])
		f.pm.MemcpyNT(pageOff(np), content[:])
		f.writePageCsum(np, content[:])
		f.pm.Fence()
		if _, err := f.appendEntry(d, entry{
			typ: etWrite, filePage: tailPage, poolPage: np, sizeHint: uint64(size),
		}, false, true); err != nil {
			f.alloc.Release(np)
			return err
		}
		f.alloc.Release(d.pages[tailPage])
		d.pages[tailPage] = np

	default:
		// Publish the attr entry first; the tail-page remainder is zeroed
		// afterwards (invisible once the size is durable).
		if _, err := f.appendEntry(d, entry{typ: etAttr, size: uint64(size)}, false, true); err != nil {
			return err
		}
		if tailMapped {
			pp := d.pages[tailPage]
			f.pm.MemsetNT(pageOff(pp)+int64(tailLen), 0, PageSize-tailLen)
			f.pm.Fence()
			if f.fortis {
				// Bug 12: the data changed at the previous fence; the
				// checksum catches up only here, and the gap is a crash
				// window. (The fixed Fortis path above never gets here.)
				content := f.pm.Load(pageOff(pp), PageSize)
				f.writePageCsum(pp, content)
				f.pm.Fence()
			}
		}
	}

	// Invalidate write entries for pages beyond the new size — and, under
	// bug 7, also the entry of the page that straddles it, which the
	// rebuild will then silently drop.
	f.invalidateBeyond(d, size)

	for fp := range d.pages {
		if fp >= firstDead {
			f.alloc.Release(d.pages[fp])
			delete(d.pages, fp)
		}
	}
	d.Size = size

	// Fortis: the free-log is cleared once the truncate is fully applied.
	if f.fortis && f.has(bugs.FortisDoubleFree) && len(freed) > 0 {
		f.clearFreeLog()
	}
	_ = oldSize
	f.endOp()
	return nil
}

// invalidateBeyond walks d's log and invalidates, in place, write entries
// whose pages lie beyond the new size (bug 7: including the straddler).
func (f *FS) invalidateBeyond(d *dnode, size int64) {
	straddler := uint64(size / PageSize)
	hasStraddle := size%PageSize != 0
	f.walkLiveLog(d, func(off int64, e entry) {
		if e.typ != etWrite || e.invalid {
			return
		}
		pageStart := int64(e.filePage) * PageSize
		switch {
		case pageStart >= size:
			f.invalidateEntry(off)
		case hasStraddle && e.filePage == straddler && f.has(bugs.NovaTruncateRebuildLoss):
			f.invalidateEntry(off)
		}
	})
}

// walkLiveLog iterates the entries of a mounted inode's log in order,
// following volatile state (used by live operations, not recovery).
func (f *FS) walkLiveLog(d *dnode, fn func(off int64, e entry)) {
	if d.head == 0 {
		return
	}
	page := d.head
	pos := pageOff(page)
	seen := map[uint64]bool{page: true}
	for pos != d.tail {
		if pos%PageSize == logNextOff {
			next := f.pm.Load64(pos)
			if next == 0 || seen[next] {
				return
			}
			seen[next] = true
			page = next
			pos = pageOff(page)
			continue
		}
		raw := f.pm.Load(pos, EntrySize)
		fn(pos, decodeEntry(raw))
		pos += EntrySize
	}
}

// writeFreeLog persists the to-be-freed page list (bug 11 only).
func (f *FS) writeFreeLog(pages []uint64) {
	base := int64(freeLogPage) * PageSize
	for i, p := range pages {
		f.pm.Store64(base+8+int64(i)*8, p)
	}
	f.pm.Store64(base, uint64(len(pages)))
	f.pm.Flush(base, 8+len(pages)*8)
	f.pm.Fence()
}

// clearFreeLog marks the free-log empty after the truncate completes.
func (f *FS) clearFreeLog() {
	f.pm.PersistStore64(int64(freeLogPage)*PageSize, 0)
	f.pm.Fence()
}

// Fallocate implements vfs.FS (mode 0: allocate and extend).
//
// Fixed behaviour emits fallocate entries only for unmapped pages. Bug 8
// emits them for every page in the range; the live DRAM state stays correct
// but the rebuild maps the fresh zero pages over existing data.
func (f *FS) Fallocate(fd vfs.FD, off, length int64) error {
	d, err := f.Descs.Get(fd)
	if err != nil {
		return err
	}
	if off < 0 || length <= 0 {
		return vfs.ErrInvalid
	}
	end := off + length
	if end > maxFileSize {
		return vfs.ErrNoSpace
	}
	newSize := d.Size
	if end > newSize {
		newSize = end
	}
	buggy := f.has(bugs.NovaFallocUnfenced)

	firstPage := uint64(off / PageSize)
	lastPage := uint64((end - 1) / PageSize)
	type pendingPage struct {
		filePage, poolPage uint64
		mapped             bool
	}
	var pend []pendingPage
	for fp := firstPage; fp <= lastPage; fp++ {
		_, mapped := d.pages[fp]
		if mapped && !buggy {
			continue
		}
		np, err := f.alloc.Next()
		if err != nil {
			for _, p := range pend {
				f.alloc.Release(p.poolPage)
			}
			return err
		}
		f.pm.MemsetNT(pageOff(np), 0, PageSize)
		f.writePageCsum(np, zeroPage[:])
		pend = append(pend, pendingPage{fp, np, mapped})
	}
	if len(pend) > 0 {
		f.pm.Fence()
	}

	tail := d.tail
	for _, p := range pend {
		var err error
		_, tail, err = f.writeEntryNoPublish(d, tail, entry{
			typ: etWrite, filePage: p.filePage, poolPage: p.poolPage,
			sizeHint: uint64(newSize), falloc: true,
		}, false)
		if err != nil {
			return err
		}
	}
	if len(pend) == 0 && newSize != d.Size {
		var err error
		_, tail, err = f.writeEntryNoPublish(d, tail, entry{typ: etAttr, size: uint64(newSize)}, false)
		if err != nil {
			return err
		}
	}
	if tail != d.tail {
		d.tail = tail
		f.syncInode(d, false)
	}

	for _, p := range pend {
		if p.mapped {
			// Buggy mode allocated a page it will not use in DRAM; the
			// rebuild is what (incorrectly) installs it.
			continue
		}
		d.pages[p.filePage] = p.poolPage
	}
	d.Size = newSize
	f.endOp()
	return nil
}
