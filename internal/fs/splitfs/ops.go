package splitfs

import (
	"encoding/binary"

	"chipmunk/internal/bugs"
	"chipmunk/internal/vfs"
)

// Create implements vfs.FS.
func (f *FS) Create(path string) (vfs.FD, error) {
	kfd, err := f.kernel.Create(path)
	if err != nil {
		return -1, err
	}
	ino, _ := f.kernel.InoOf(path)
	if err := f.appendEntry(opCreat, -1, pstr(vfs.Clean(path)), true); err != nil {
		return -1, err
	}
	return f.descs.Open(ino, &openFile{kfd: kfd, path: vfs.Clean(path), ino: ino}), nil
}

// Open implements vfs.FS.
func (f *FS) Open(path string) (vfs.FD, error) {
	kfd, err := f.kernel.Open(path)
	if err != nil {
		return -1, err
	}
	ino, _ := f.kernel.InoOf(path)
	return f.descs.Open(ino, &openFile{kfd: kfd, path: vfs.Clean(path), ino: ino}), nil
}

// Close implements vfs.FS.
func (f *FS) Close(fd vfs.FD) error {
	of, err := f.descs.Get(fd)
	if err != nil {
		return err
	}
	f.descs.Close(fd, nil)
	delete(f.fdCursor, fd)
	return f.kernel.Close(of.kfd)
}

// Mkdir implements vfs.FS.
func (f *FS) Mkdir(path string) error {
	if err := f.kernel.Mkdir(path); err != nil {
		return err
	}
	return f.appendEntry(opMkdir, -1, pstr(vfs.Clean(path)), true)
}

// Rmdir implements vfs.FS.
func (f *FS) Rmdir(path string) error {
	if err := f.kernel.Rmdir(path); err != nil {
		return err
	}
	return f.appendEntry(opRmdir, -1, pstr(vfs.Clean(path)), true)
}

// Link implements vfs.FS.
func (f *FS) Link(oldPath, newPath string) error {
	if err := f.kernel.Link(oldPath, newPath); err != nil {
		return err
	}
	payload := append(pstr(vfs.Clean(oldPath)), pstr(vfs.Clean(newPath))...)
	return f.appendEntry(opLink, -1, payload, true)
}

// Unlink implements vfs.FS.
func (f *FS) Unlink(path string) error {
	if err := f.kernel.Unlink(path); err != nil {
		return err
	}
	return f.appendEntry(opUnlink, -1, pstr(vfs.Clean(path)), true)
}

// Rename implements vfs.FS.
//
// Fixed: one atomic rename record. Bug 25 (files only): the optimized path
// logs the create of the new name immediately and defers the delete of the
// old name to the next log append — a crash in between replays into a state
// with both names.
func (f *FS) Rename(oldPath, newPath string) error {
	oldPath, newPath = vfs.Clean(oldPath), vfs.Clean(newPath)
	st, statErr := f.kernel.Stat(oldPath)
	if err := f.kernel.Rename(oldPath, newPath); err != nil {
		return err
	}
	if f.has(bugs.SplitfsRenameOldSurvives) && statErr == nil && st.Type == vfs.TypeRegular {
		payload := append(pstr(oldPath), pstr(newPath)...)
		if err := f.appendEntry(opRenameCreate, -1, payload, true); err != nil {
			return err
		}
		deferred := append([]byte{opRenameDelete}, pstr(oldPath)...)
		f.pendingOps = append(f.pendingOps, deferred)
		return nil
	}
	payload := append(pstr(oldPath), pstr(newPath)...)
	return f.appendEntry(opRename, -1, payload, true)
}

// Truncate implements vfs.FS.
func (f *FS) Truncate(path string, size int64) error {
	ino, err := f.kernel.InoOf(vfs.Clean(path))
	if err != nil {
		return err
	}
	if err := f.kernel.Truncate(path, size); err != nil {
		return err
	}
	payload := append(pu64(ino), pu64(uint64(size))...)
	return f.appendEntry(opTruncate, -1, payload, true)
}

// Fallocate implements vfs.FS.
func (f *FS) Fallocate(fd vfs.FD, off, length int64) error {
	of, err := f.descs.Get(fd)
	if err != nil {
		return err
	}
	if err := f.kernel.Fallocate(of.kfd, off, length); err != nil {
		return err
	}
	payload := append(pu64(of.ino), append(pu64(uint64(off)), pu64(uint64(length))...)...)
	return f.appendEntry(opFalloc, fd, payload, true)
}

// Pwrite implements vfs.FS: stage the data, log the record, update the
// kernel's volatile state.
func (f *FS) Pwrite(fd vfs.FD, data []byte, off int64) (int, error) {
	of, err := f.descs.Get(fd)
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	if len(data) == 0 {
		return 0, nil
	}
	if int64(len(data)) > stageChunk {
		return 0, vfs.ErrNoSpace
	}

	// Reserve a staging window for the inode.
	base, ok := f.stageBase[of.ino]
	if !ok {
		if f.stageBump+stageChunk > f.stage.Size() {
			if err := f.relink(); err != nil {
				return 0, err
			}
		}
		base = f.stageBump
		f.stageBump += stageChunk
		f.stageBase[of.ino] = base
	}

	// The staging cursor: per-inode in the fixed system; the published code
	// tracked it per file descriptor (bug 22). A descriptor opened while
	// the file is otherwise closed correctly resumes from the inode's
	// cursor, but a descriptor opened CONCURRENTLY with another initializes
	// its private cursor to the chunk base — its first write then clobbers
	// staged bytes that earlier records still reference. Only concurrent
	// two-descriptor workloads (which ACE never generates) reach the bad
	// path.
	var cursor int64
	if f.has(bugs.SplitfsStagePerFD) {
		c, ok := f.fdCursor[fd]
		if !ok {
			if f.descs.Opens(of.ino) > 1 {
				c = 0 // the forgotten concurrent-open case
			} else {
				c = f.inoCursor[of.ino]
			}
		}
		cursor = c
	} else {
		cursor = f.inoCursor[of.ino]
	}
	if cursor+int64(len(data)) > stageChunk {
		if err := f.relink(); err != nil {
			return 0, err
		}
		base = f.stageBump
		f.stageBump += stageChunk
		f.stageBase[of.ino] = base
		cursor = 0
	}
	stageOff := base + cursor
	f.stage.MemcpyNT(stageOff, data)
	f.stage.Fence()
	if f.has(bugs.SplitfsStagePerFD) {
		f.fdCursor[fd] = cursor + int64(len(data))
	}
	if cursor+int64(len(data)) > f.inoCursor[of.ino] {
		f.inoCursor[of.ino] = cursor + int64(len(data))
	}

	// Log record: {ino, off, len, stageOff}.
	payload := append(pu64(of.ino), append(pu64(uint64(off)),
		append(pu64(uint64(len(data))), pu64(uint64(stageOff))...)...)...)
	if err := f.appendEntry(opPwrite, fd, payload, false); err != nil {
		return 0, err
	}

	// Kernel volatile state.
	if _, err := f.kernel.Pwrite(of.kfd, data, off); err != nil {
		return 0, err
	}
	return len(data), nil
}

// Pread implements vfs.FS (reads come from the kernel's volatile tree,
// which SplitFS keeps current).
func (f *FS) Pread(fd vfs.FD, buf []byte, off int64) (int, error) {
	of, err := f.descs.Get(fd)
	if err != nil {
		return 0, err
	}
	return f.kernel.Pread(of.kfd, buf, off)
}

// Fsync implements vfs.FS: relink.
func (f *FS) Fsync(fd vfs.FD) error {
	if _, err := f.descs.Get(fd); err != nil {
		return err
	}
	return f.relink()
}

// Sync implements vfs.FS.
func (f *FS) Sync() error { return f.relink() }

// Stat implements vfs.FS.
func (f *FS) Stat(path string) (vfs.Stat, error) { return f.kernel.Stat(path) }

// ReadDir implements vfs.FS.
func (f *FS) ReadDir(path string) ([]vfs.DirEnt, error) { return f.kernel.ReadDir(path) }

// decodeWrite unpacks a pwrite payload.
func decodeWrite(p []byte) (ino uint64, off, n, stageOff int64) {
	ino = binary.LittleEndian.Uint64(p)
	off = int64(binary.LittleEndian.Uint64(p[8:]))
	n = int64(binary.LittleEndian.Uint64(p[16:]))
	stageOff = int64(binary.LittleEndian.Uint64(p[24:]))
	return
}
