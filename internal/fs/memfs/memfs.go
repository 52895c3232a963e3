// Package memfs is a purely in-memory POSIX file-system model. Chipmunk
// uses it as the oracle: the workload runs on a memfs instance in parallel
// with crash-state replay, and per-syscall snapshots of memfs define the
// legal states a crashed-and-recovered file system may present (§3.3).
//
// It is also the reference model for differential testing: every PM file
// system in fixed mode must be observationally equivalent to memfs.
package memfs

import (
	"maps"
	"sort"

	"chipmunk/internal/vfs"
)

type node struct {
	ino      uint64
	typ      vfs.FileType
	nlink    uint32
	data     []byte
	children map[string]*node // directories
	parent   *node            // directories
	xattrs   map[string]string
}

// FS is the in-memory file system.
type FS struct {
	root    *node
	nextIno uint64
	descs   vfs.FDTable[*node]
	mounted bool
	// files is the size of the last State, the next one's map hint: one
	// op changes few paths, so the map is built without regrowing.
	files int
}

// New returns an unformatted memfs.
func New() *FS { return &FS{} }

// Caps implements vfs.FS. memfs is trivially "strong": it has no
// persistence at all, so every completed operation is final.
func (f *FS) Caps() vfs.Caps {
	return vfs.Caps{Name: "memfs", Strong: true, AtomicWrite: true, SyncDataWrites: true}
}

// Mkfs implements vfs.FS.
func (f *FS) Mkfs() error {
	f.root = &node{ino: 1, typ: vfs.TypeDir, nlink: 2, children: map[string]*node{}}
	f.root.parent = f.root
	f.nextIno = 2
	f.descs.Reset()
	f.mounted = true
	return nil
}

// Mount implements vfs.FS. memfs has no media, so mounting an unformatted
// instance formats it.
func (f *FS) Mount() error {
	if f.root == nil {
		return f.Mkfs()
	}
	f.descs.Reset()
	f.mounted = true
	return nil
}

// Unmount implements vfs.FS.
func (f *FS) Unmount() error {
	f.mounted = false
	f.descs.Reset()
	return nil
}

// Clone returns a copy of f that changes without moving f, or the reverse,
// or nil when a descriptor is open: a fork point's oracle (vfs.Forker).
// File data, never written in place, is shared.
func (f *FS) Clone() *FS {
	descs, ok := f.descs.Fork()
	if !ok {
		return nil
	}
	g := &FS{nextIno: f.nextIno, descs: descs, mounted: f.mounted, files: f.files}
	if f.root != nil {
		g.root = f.root.clone(nil, map[*node]*node{})
		g.root.parent = g.root
	}
	return g
}

// clone copies the subtree under n into directory parent. links holds the
// copies of files with more than one link.
func (n *node) clone(parent *node, links map[*node]*node) *node {
	if c := links[n]; c != nil {
		return c
	}
	c := &node{ino: n.ino, typ: n.typ, nlink: n.nlink, data: n.data, xattrs: maps.Clone(n.xattrs)}
	if n.typ == vfs.TypeDir {
		c.parent = parent
		c.children = make(map[string]*node, len(n.children))
		for name, ch := range n.children {
			c.children[name] = ch.clone(c, links)
		}
	} else if n.nlink > 1 {
		links[n] = c
	}
	return c
}

// State returns what vfs.Capture reads of f, built from the node tree. File
// data aliases the nodes', never written in place (vfs.Rewrite), so the
// state stays as it was however f changes later.
func (f *FS) State() vfs.State {
	st := make(vfs.State, f.files)
	f.root.state("/", st)
	f.files = len(st)
	return st
}

func (n *node) state(path string, st vfs.State) {
	f := vfs.FileState{Path: path, Type: n.typ, Nlink: n.nlink, Xattrs: make([]string, 0, len(n.xattrs))}
	for name, v := range n.xattrs {
		f.Xattrs = append(f.Xattrs, name+"="+v)
	}
	sort.Strings(f.Xattrs)
	f.SetIno(n.ino)
	if n.typ == vfs.TypeDir {
		f.Entries = make([]string, 0, len(n.children))
		for name := range n.children {
			f.Entries = append(f.Entries, name)
		}
		sort.Strings(f.Entries)
	} else if f.Size, f.Data = int64(len(n.data)), n.data[:len(n.data):len(n.data)]; f.Data == nil {
		f.Data = []byte{}
	}
	st[path] = f
	for _, name := range f.Entries {
		n.children[name].state(vfs.Join(path, name), st)
	}
}

// child is the path walk's step (vfs.Walk).
func (f *FS) child(n *node, name string) (*node, error) {
	if n.typ != vfs.TypeDir {
		return nil, vfs.ErrNotDir
	}
	if c, ok := n.children[name]; ok {
		return c, nil
	}
	return nil, vfs.ErrNotExist
}

func (f *FS) node(path string) (*node, error) { return vfs.Walk(f.root, path, f.child) }

func (f *FS) parent(path string) (*node, string, error) {
	return vfs.WalkParent(f.root, path, f.child)
}

// Create implements vfs.FS (O_CREAT|O_EXCL semantics, like ACE's creat).
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
	p.children[name] = n
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

// Close implements vfs.FS. An unlinked node lives on while a descriptor
// holds it, and the garbage collector reclaims it after.
func (f *FS) Close(fd vfs.FD) error { return f.descs.Close(fd, nil) }

// Mkdir implements vfs.FS.
func (f *FS) Mkdir(path string) error {
	p, name, err := f.parent(path)
	if err != nil {
		return err
	}
	if _, ok := p.children[name]; ok {
		return vfs.ErrExist
	}
	n := &node{ino: f.nextIno, typ: vfs.TypeDir, nlink: 2, children: map[string]*node{}, parent: p}
	f.nextIno++
	p.children[name] = n
	p.nlink++
	return nil
}

// Rmdir implements vfs.FS.
func (f *FS) Rmdir(path string) error {
	p, name, err := f.parent(path)
	if err != nil {
		return err
	}
	n, ok := p.children[name]
	if !ok {
		return vfs.ErrNotExist
	}
	if n.typ != vfs.TypeDir {
		return vfs.ErrNotDir
	}
	if len(n.children) > 0 {
		return vfs.ErrNotEmpty
	}
	delete(p.children, name)
	p.nlink--
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
	p.children[name] = n
	n.nlink++
	return nil
}

// Unlink implements vfs.FS.
func (f *FS) Unlink(path string) error {
	p, name, err := f.parent(path)
	if err != nil {
		return err
	}
	n, ok := p.children[name]
	if !ok {
		return vfs.ErrNotExist
	}
	if n.typ == vfs.TypeDir {
		return vfs.ErrIsDir
	}
	delete(p.children, name)
	n.nlink--
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
	n, ok := op.children[oname]
	if !ok {
		return vfs.ErrNotExist
	}
	np, nname, err := f.parent(newPath)
	if err != nil {
		return err
	}
	if existing, ok := np.children[nname]; ok {
		if err := vfs.CheckReplace(n.typ, existing.typ, len(existing.children) == 0); err != nil {
			return err
		}
		if n.typ == vfs.TypeDir {
			np.nlink--
		} else {
			existing.nlink--
		}
	}
	delete(op.children, oname)
	np.children[nname] = n
	if n.typ == vfs.TypeDir {
		op.nlink--
		np.nlink++
		n.parent = np
	}
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
	return nil
}

// Fallocate implements vfs.FS (mode 0: allocate, extending size).
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

// Fsync implements vfs.FS (no-op: memfs has no volatile/durable split).
func (f *FS) Fsync(fd vfs.FD) error {
	_, err := f.descs.Get(fd)
	return err
}

// Sync implements vfs.FS.
func (f *FS) Sync() error { return nil }

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
	for name, c := range n.children {
		out = append(out, vfs.DirEnt{Name: name, Ino: c.ino, Type: c.typ})
	}
	vfs.SortDirEnts(out)
	return out, nil
}

// Setxattr implements vfs.XattrFS.
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

var (
	_ vfs.FS      = (*FS)(nil)
	_ vfs.XattrFS = (*FS)(nil)
)

// OpenFDs implements vfs.FDCounter.
func (f *FS) OpenFDs() int { return f.descs.OpenFDs() }
