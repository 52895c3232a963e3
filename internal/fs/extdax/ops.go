package extdax

import (
	"sort"

	"chipmunk/internal/vfs"
)

// All namespace and data operations mutate only the volatile tree and mark
// the touched nodes dirty; durability happens at commit (fsync/sync).

// child is the path walk's step (vfs.Walk).
func (f *FS) child(n *node, name string) (*node, error) {
	if n.typ != vfs.TypeDir {
		return nil, vfs.ErrNotDir
	}
	ino, ok := n.children[name]
	if !ok {
		return nil, vfs.ErrNotExist
	}
	if c := f.nodes[ino]; c != nil {
		return c, nil
	}
	return nil, vfs.ErrIO
}

func (f *FS) node(path string) (*node, error) { return vfs.Walk(f.nodes[1], path, f.child) }

func (f *FS) parent(path string) (*node, string, error) {
	return vfs.WalkParent(f.nodes[1], path, f.child)
}

// unlinked records that ino lost its last link, so the next commit
// deletes it, and hands it to the lifetime rule.
func (f *FS) unlinked(ino uint64) {
	f.deleted[ino] = true
	delete(f.dirty, ino)
	f.descs.Unlinked(ino, 0, f.reclaim)
}

// reclaim drops a node with no links and no descriptors left.
func (f *FS) reclaim(ino uint64) { delete(f.nodes, ino) }

// Create implements vfs.FS.
func (f *FS) Create(path string) (vfs.FD, error) {
	p, name, err := f.parent(path)
	if err != nil {
		return -1, err
	}
	if _, ok := p.children[name]; ok {
		return -1, vfs.ErrExist
	}
	n := &node{ino: f.nextIno, typ: vfs.TypeRegular, nlink: 1}
	f.nextIno++
	p.children[name] = n.ino
	f.nodes[n.ino] = n
	f.dirty[n.ino] = true
	f.dirty[p.ino] = true
	return f.descs.Open(n.ino, n), nil
}

// Open implements vfs.FS.
func (f *FS) Open(path string) (vfs.FD, error) {
	n, err := f.node(path)
	if err != nil {
		return -1, err
	}
	if n.typ == vfs.TypeDir {
		return -1, vfs.ErrIsDir
	}
	return f.descs.Open(n.ino, n), nil
}

// Close implements vfs.FS.
func (f *FS) Close(fd vfs.FD) error { return f.descs.Close(fd, f.reclaim) }

// Mkdir implements vfs.FS.
func (f *FS) Mkdir(path string) error {
	p, name, err := f.parent(path)
	if err != nil {
		return err
	}
	if _, ok := p.children[name]; ok {
		return vfs.ErrExist
	}
	n := &node{ino: f.nextIno, typ: vfs.TypeDir, nlink: 2, children: map[string]uint64{}}
	f.nextIno++
	p.children[name] = n.ino
	p.nlink++
	f.nodes[n.ino] = n
	f.dirty[n.ino] = true
	f.dirty[p.ino] = true
	return nil
}

// Rmdir implements vfs.FS.
func (f *FS) Rmdir(path string) error {
	p, name, err := f.parent(path)
	if err != nil {
		return err
	}
	ino, ok := p.children[name]
	if !ok {
		return vfs.ErrNotExist
	}
	n := f.nodes[ino]
	if n == nil {
		return vfs.ErrIO
	}
	if n.typ != vfs.TypeDir {
		return vfs.ErrNotDir
	}
	if len(n.children) > 0 {
		return vfs.ErrNotEmpty
	}
	delete(p.children, name)
	p.nlink--
	f.unlinked(ino)
	f.dirty[p.ino] = true
	return nil
}

// Link implements vfs.FS.
func (f *FS) Link(oldPath, newPath string) error {
	n, err := f.node(oldPath)
	if err != nil {
		return err
	}
	if n.typ == vfs.TypeDir {
		return vfs.ErrIsDir
	}
	p, name, err := f.parent(newPath)
	if err != nil {
		return err
	}
	if _, ok := p.children[name]; ok {
		return vfs.ErrExist
	}
	p.children[name] = n.ino
	n.nlink++
	f.dirty[p.ino] = true
	f.dirty[n.ino] = true
	return nil
}

// Unlink implements vfs.FS.
func (f *FS) Unlink(path string) error {
	p, name, err := f.parent(path)
	if err != nil {
		return err
	}
	ino, ok := p.children[name]
	if !ok {
		return vfs.ErrNotExist
	}
	n := f.nodes[ino]
	if n == nil {
		return vfs.ErrIO
	}
	if n.typ == vfs.TypeDir {
		return vfs.ErrIsDir
	}
	delete(p.children, name)
	n.nlink--
	f.dirty[p.ino] = true
	if n.nlink == 0 {
		f.unlinked(ino)
	} else {
		f.dirty[ino] = true
	}
	return nil
}

// Rename implements vfs.FS.
func (f *FS) Rename(oldPath, newPath string) error {
	oldPath, newPath = vfs.Clean(oldPath), vfs.Clean(newPath)
	if oldPath == newPath {
		return nil
	}
	if vfs.IsAncestor(oldPath, newPath) {
		return vfs.ErrInvalid
	}
	op, oname, err := f.parent(oldPath)
	if err != nil {
		return err
	}
	ino, ok := op.children[oname]
	if !ok {
		return vfs.ErrNotExist
	}
	n := f.nodes[ino]
	np, nname, err := f.parent(newPath)
	if err != nil {
		return err
	}
	if vIno, ok := np.children[nname]; ok {
		victim := f.nodes[vIno]
		if victim == nil {
			return vfs.ErrIO
		}
		if err := vfs.CheckReplace(n.typ, victim.typ, len(victim.children) == 0); err != nil {
			return err
		}
		if victim.typ == vfs.TypeDir {
			np.nlink--
			victim.nlink = 0
		} else {
			victim.nlink--
		}
		if victim.nlink == 0 {
			f.unlinked(vIno)
		} else {
			f.dirty[vIno] = true
		}
	}
	delete(op.children, oname)
	np.children[nname] = ino
	if n.typ == vfs.TypeDir && op != np {
		op.nlink--
		np.nlink++
	}
	f.dirty[op.ino] = true
	f.dirty[np.ino] = true
	return nil
}

// Truncate implements vfs.FS.
func (f *FS) Truncate(path string, size int64) error {
	if size < 0 {
		return vfs.ErrInvalid
	}
	n, err := f.node(path)
	if err != nil {
		return err
	}
	if n.typ == vfs.TypeDir {
		return vfs.ErrIsDir
	}
	n.data = vfs.Rewrite(n.data, size, 0, nil)
	f.dirty[n.ino] = true
	return nil
}

// Fallocate implements vfs.FS.
func (f *FS) Fallocate(fd vfs.FD, off, length int64) error {
	n, err := f.descs.Get(fd)
	if err != nil {
		return err
	}
	if off < 0 || length <= 0 {
		return vfs.ErrInvalid
	}
	if off+length > int64(len(n.data)) {
		n.data = vfs.Rewrite(n.data, off+length, 0, nil)
	}
	f.dirty[n.ino] = true
	return nil
}

// Pwrite implements vfs.FS.
func (f *FS) Pwrite(fd vfs.FD, data []byte, off int64) (int, error) {
	n, err := f.descs.Get(fd)
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	n.data = vfs.Rewrite(n.data, max(int64(len(n.data)), off+int64(len(data))), off, data)
	f.dirty[n.ino] = true
	return len(data), nil
}

// Pread implements vfs.FS.
func (f *FS) Pread(fd vfs.FD, buf []byte, off int64) (int, error) {
	n, err := f.descs.Get(fd)
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	if off >= int64(len(n.data)) {
		return 0, nil
	}
	return copy(buf, n.data[off:]), nil
}

// Fsync implements vfs.FS: commits the running journal transaction, making
// everything dirty so far durable (ext4's global journal semantics).
func (f *FS) Fsync(fd vfs.FD) error {
	if _, err := f.descs.Get(fd); err != nil {
		return err
	}
	return f.commit()
}

// Sync implements vfs.FS.
func (f *FS) Sync() error { return f.commit() }

// Stat implements vfs.FS.
func (f *FS) Stat(path string) (vfs.Stat, error) {
	n, err := f.node(path)
	if err != nil {
		return vfs.Stat{}, err
	}
	return vfs.Stat{Ino: n.ino, Type: n.typ, Nlink: n.nlink, Size: int64(len(n.data))}, nil
}

// ReadDir implements vfs.FS.
func (f *FS) ReadDir(path string) ([]vfs.DirEnt, error) {
	n, err := f.node(path)
	if err != nil {
		return nil, err
	}
	if n.typ != vfs.TypeDir {
		return nil, vfs.ErrNotDir
	}
	out := make([]vfs.DirEnt, 0, len(n.children))
	for name, ino := range n.children {
		typ := vfs.TypeRegular
		if c := f.nodes[ino]; c != nil {
			typ = c.typ
		}
		out = append(out, vfs.DirEnt{Name: name, Ino: ino, Type: typ})
	}
	vfs.SortDirEnts(out)
	return out, nil
}

// Setxattr implements vfs.XattrFS (ext4-DAX and XFS-DAX support extended
// attributes; the other tested systems do not, matching §4.1).
func (f *FS) Setxattr(path, name string, value []byte) error {
	n, err := f.node(path)
	if err != nil {
		return err
	}
	if !vfs.ValidName(name) {
		return vfs.ErrInvalid
	}
	if n.xattrs == nil {
		n.xattrs = map[string]string{}
	}
	n.xattrs[name] = string(value)
	f.dirty[n.ino] = true
	return nil
}

// Getxattr implements vfs.XattrFS.
func (f *FS) Getxattr(path, name string) ([]byte, error) {
	n, err := f.node(path)
	if err != nil {
		return nil, err
	}
	v, ok := n.xattrs[name]
	if !ok {
		return nil, vfs.ErrNotExist
	}
	return []byte(v), nil
}

// Removexattr implements vfs.XattrFS.
func (f *FS) Removexattr(path, name string) error {
	n, err := f.node(path)
	if err != nil {
		return err
	}
	if _, ok := n.xattrs[name]; !ok {
		return vfs.ErrNotExist
	}
	delete(n.xattrs, name)
	f.dirty[n.ino] = true
	return nil
}

// Listxattr implements vfs.XattrFS.
func (f *FS) Listxattr(path string) ([]string, error) {
	n, err := f.node(path)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(n.xattrs))
	for name := range n.xattrs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

var _ vfs.XattrFS = (*FS)(nil)
