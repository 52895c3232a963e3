package extdax

import "chipmunk/internal/vfs"

// The methods below exist for SplitFS: its operation-log replay addresses
// files by kernel inode number (paths can have changed between a staged
// write and the crash), mirroring how the real SplitFS relinks staged
// extents into inodes rather than paths.

// InoOf resolves a path to its inode number.
func (f *FS) InoOf(path string) (uint64, error) {
	n, err := f.node(path)
	if err != nil {
		return 0, err
	}
	return n.ino, nil
}

// PwriteIno writes data at off into the node with the given inode number.
func (f *FS) PwriteIno(ino uint64, data []byte, off int64) error {
	n := f.nodes[ino]
	if n == nil {
		return vfs.ErrNotExist
	}
	if n.typ == vfs.TypeDir {
		return vfs.ErrIsDir
	}
	n.data = vfs.Rewrite(n.data, max(int64(len(n.data)), off+int64(len(data))), off, data)
	f.dirty[ino] = true
	return nil
}

// ExtendIno grows the node to at least size bytes (fallocate replay).
func (f *FS) ExtendIno(ino uint64, size int64) error {
	n := f.nodes[ino]
	if n == nil {
		return vfs.ErrNotExist
	}
	if int64(len(n.data)) < size {
		n.data = vfs.Rewrite(n.data, size, 0, nil)
	}
	f.dirty[ino] = true
	return nil
}

// TruncateIno sets the node's size (truncate replay).
func (f *FS) TruncateIno(ino uint64, size int64) error {
	n := f.nodes[ino]
	if n == nil {
		return vfs.ErrNotExist
	}
	n.data = vfs.Rewrite(n.data, size, 0, nil)
	f.dirty[ino] = true
	return nil
}
