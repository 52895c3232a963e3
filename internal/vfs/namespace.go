package vfs

import (
	"cmp"
	"maps"
	"slices"
	"strings"
)

// The DRAM side every guest model shares: one path walk over the model's
// own node type, one descriptor table, one inode lifetime rule, and, for
// the models whose nodes embed Inode, one Tree that answers the read side.
// What stays per model — persistent layout, journal or log discipline,
// recovery and the reclaim of its orphans, and every bug-injection site —
// never runs in here.

// Inode is the DRAM inode NOVA and the in-place layer under PMFS and
// WineFS share; each model's node type embeds it beside its own extras.
// The two one-byte fields come last, where they share one padded word:
// that keeps NOVA's node in the 96-byte size class and the in-place one in
// the 144-byte class. A remounted model takes its nodes from the spares of
// the mount before (Tree.Spare) and allocates only what they lack.
type Inode struct {
	Ino   uint64
	Nlink uint64
	Size  int64
	// Dirents maps a directory's names to its entries; nil for a file.
	Dirents map[string]Dirent
	Type    FileType
	// Damaged marks a node whose on-media state recovery found invalid,
	// or a placeholder for an entry whose inode it did not find: every
	// use of it is ErrIO.
	Damaged bool
}

// Dirent is one directory entry: the inode it links, and where the model
// keeps the entry on media (NOVA: its dentry-add log entry; PMFS and
// WineFS: its slot), so an op can rewrite it in place.
type Dirent struct {
	Ino uint64
	Off int64
}

func (n *Inode) inode() *Inode { return n }

// Node is a model's DRAM node type: a pointer to a struct that embeds
// Inode.
type Node interface {
	comparable
	inode() *Inode
}

// Tree is a model's DRAM namespace: its nodes by inode number, the root's
// number, and its descriptor table, whose per-open value is the node. It
// answers lookup, Stat, ReadDir, Open and OpenFDs for the model, which
// embeds it; every op that writes media stays the model's.
type Tree[N Node] struct {
	Nodes map[uint64]N
	Root  uint64
	Descs FDTable[N]
	// seen is Orphans' reachability mark, kept for the next mount; spare
	// holds the nodes of earlier mounts, files and directories apart, for
	// Spare to hand out again, and removed the nodes this mount removed,
	// once the tree has rewound (a tree that never does keeps none).
	seen    map[uint64]bool
	spare   [2][]N
	removed []N
	rewound bool
}

// Reset empties t for a model that formats or mounts, with root as the
// root's inode number; the node map keeps its storage. Reset(0) leaves a
// tree no path resolves in (Walk: ErrCorrupt), as a model's Remount does
// until its mount finds the root.
func (t *Tree[N]) Reset(root uint64) {
	if t.Nodes == nil {
		t.Nodes = map[uint64]N{}
	}
	clear(t.Nodes)
	t.Root = root
	t.Descs.Reset()
}

// Rewind empties t for a model's Remount: its nodes and those the mount
// removed become spares, and no path resolves until the mount's Reset. A
// model rewinds only once nothing holds a node of the mount before: the
// next mount overwrites them.
func (t *Tree[N]) Rewind() {
	for _, n := range t.Nodes {
		t.addSpare(n)
	}
	for _, n := range t.removed {
		t.addSpare(n)
	}
	clear(t.removed)
	t.removed = t.removed[:0]
	t.rewound = true
	t.Reset(0)
}

// Remove deletes node ino, which the model has reclaimed. On a tree that
// has rewound it becomes a spare at the next Rewind, when nothing of this
// mount holds it.
func (t *Tree[N]) Remove(ino uint64) {
	n, ok := t.Nodes[ino]
	if !ok {
		return
	}
	delete(t.Nodes, ino)
	if t.rewound {
		t.removed = append(t.removed, n)
	}
}

// Spare returns a node an earlier mount held, of a directory when typ is
// TypeDir (with its entry map) and else of a file, for the model to
// overwrite whole; ok is false when none is left.
func (t *Tree[N]) Spare(typ FileType) (n N, ok bool) {
	l := t.spare[spareKind(typ)]
	if len(l) == 0 {
		return n, false
	}
	n = l[len(l)-1]
	var zero N
	l[len(l)-1] = zero
	t.spare[spareKind(typ)] = l[:len(l)-1]
	return n, true
}

func (t *Tree[N]) addSpare(n N) {
	k := spareKind(n.inode().Type)
	t.spare[k] = append(t.spare[k], n)
}

func spareKind(typ FileType) int {
	if typ == TypeDir {
		return 1
	}
	return 0
}

// Emptied returns m emptied, or a new map when m is nil: a spare node's
// map, ready for the mount that takes it.
func Emptied[K comparable, V any](m map[K]V) map[K]V {
	if m == nil {
		return map[K]V{}
	}
	clear(m)
	return m
}

// Drop discards t at unmount.
func (t *Tree[N]) Drop() {
	t.Nodes = nil
	t.Descs.Reset()
}

// step is the path walk's step (Walk): a damaged directory is ErrIO, a
// non-directory ErrNotDir, a missing name ErrNotExist, and an entry whose
// inode is gone ErrIO.
func (t *Tree[N]) step(dir N, name string) (N, error) {
	var zero N
	d := dir.inode()
	if d.Damaged {
		return zero, ErrIO
	}
	if d.Type != TypeDir {
		return zero, ErrNotDir
	}
	de, ok := d.Dirents[name]
	if !ok {
		return zero, ErrNotExist
	}
	if c, ok := t.Nodes[de.Ino]; ok {
		return c, nil
	}
	return zero, ErrIO
}

// Lookup resolves path to a node that can be used: a damaged one is ErrIO.
func (t *Tree[N]) Lookup(path string) (N, error) {
	n, err := Walk(t.Nodes[t.Root], path, t.step)
	if err == nil && n.inode().Damaged {
		var zero N
		return zero, ErrIO
	}
	return n, err
}

// parent resolves the directory that holds path's last component.
func (t *Tree[N]) parent(path string) (N, string, error) {
	return WalkParent(t.Nodes[t.Root], path, t.step)
}

// Ref is one resolved directory entry: the directory that holds it, the
// name, the entry, and the node it links (zero for a vacant name).
type Ref[N Node] struct {
	Dir  N
	Name string
	Dirent
	Node N
}

// Vacant resolves the directory a create, mkdir or link puts path's last
// component in: after parent's errors, a name that is taken is ErrExist.
func (t *Tree[N]) Vacant(path string) (N, string, error) {
	p, name, err := t.parent(path)
	if err == nil {
		if _, ok := p.inode().Dirents[name]; ok {
			var zero N
			return zero, "", ErrExist
		}
	}
	return p, name, err
}

// entry resolves the entry path names: after parent's errors, a missing
// name is ErrNotExist, and an entry whose node is gone or damaged ErrIO.
func (t *Tree[N]) entry(path string) (Ref[N], error) {
	p, name, err := t.parent(path)
	if err != nil {
		return Ref[N]{}, err
	}
	de, ok := p.inode().Dirents[name]
	if !ok {
		return Ref[N]{}, ErrNotExist
	}
	var zero N
	n := t.Nodes[de.Ino]
	if n == zero || n.inode().Damaged {
		return Ref[N]{}, ErrIO
	}
	return Ref[N]{Dir: p, Name: name, Dirent: de, Node: n}, nil
}

// Removable resolves the entry unlink (dir false) or rmdir (dir true)
// removes: after entry's errors, unlink of a directory is ErrIsDir, and
// rmdir of a non-directory ErrNotDir and of a directory with entries
// ErrNotEmpty.
func (t *Tree[N]) Removable(path string, dir bool) (Ref[N], error) {
	r, err := t.entry(path)
	if err != nil {
		return r, err
	}
	d := r.Node.inode()
	switch {
	case !dir && d.Type == TypeDir:
		return Ref[N]{}, ErrIsDir
	case dir && d.Type != TypeDir:
		return Ref[N]{}, ErrNotDir
	case dir && len(d.Dirents) > 0:
		return Ref[N]{}, ErrNotEmpty
	}
	return r, nil
}

// Move resolves a rename: from is the source's entry, and to the target's
// directory and name, with the entry and node it replaces when the name is
// taken. A path renamed onto itself resolves to zero Refs: there is nothing
// to move. The errors come in this order: a rename into the source's own
// subtree is ErrInvalid, then entry's errors for the source, parent's for
// the target, a victim whose node is gone ErrIO, and CheckReplace's.
func (t *Tree[N]) Move(oldPath, newPath string) (from, to Ref[N], err error) {
	oldPath, newPath = Clean(oldPath), Clean(newPath)
	if oldPath == newPath {
		return from, to, nil
	}
	if IsAncestor(oldPath, newPath) {
		return from, to, ErrInvalid
	}
	if from, err = t.entry(oldPath); err != nil {
		return Ref[N]{}, to, err
	}
	np, name, err := t.parent(newPath)
	if err != nil {
		return Ref[N]{}, to, err
	}
	to = Ref[N]{Dir: np, Name: name}
	if de, ok := np.inode().Dirents[name]; ok {
		var zero N
		v := t.Nodes[de.Ino]
		if v == zero {
			return Ref[N]{}, Ref[N]{}, ErrIO
		}
		vd := v.inode()
		if err := CheckReplace(from.Node.inode().Type, vd.Type, len(vd.Dirents) == 0); err != nil {
			return Ref[N]{}, Ref[N]{}, err
		}
		to.Dirent, to.Node = de, v
	}
	return from, to, nil
}

// Stat implements FS.
func (t *Tree[N]) Stat(path string) (Stat, error) {
	n, err := t.Lookup(path)
	if err != nil {
		return Stat{}, err
	}
	d := n.inode()
	return Stat{Ino: d.Ino, Type: d.Type, Nlink: uint32(d.Nlink), Size: d.Size}, nil
}

// ReadDir implements FS. An entry whose inode is gone lists as a file.
func (t *Tree[N]) ReadDir(path string) ([]DirEnt, error) {
	n, err := t.Lookup(path)
	if err != nil {
		return nil, err
	}
	d := n.inode()
	if d.Type != TypeDir {
		return nil, ErrNotDir
	}
	out := make([]DirEnt, 0, len(d.Dirents))
	for name, de := range d.Dirents {
		typ := TypeRegular
		if c, ok := t.Nodes[de.Ino]; ok {
			typ = c.inode().Type
		}
		out = append(out, DirEnt{Name: name, Ino: de.Ino, Type: typ})
	}
	SortDirEnts(out)
	return out, nil
}

// Open implements FS.
func (t *Tree[N]) Open(path string) (FD, error) {
	n, err := t.Lookup(path)
	if err != nil {
		return -1, err
	}
	if n.inode().Type == TypeDir {
		return -1, ErrIsDir
	}
	return t.Descs.Open(n.inode().Ino, n), nil
}

// OpenFDs implements FDCounter.
func (t *Tree[N]) OpenFDs() int { return t.Descs.OpenFDs() }

// Fork returns a copy of t that shares no node and no entry map with it,
// and false when a descriptor is open (see Forker). copyNode copies one
// node with the model's extras; Fork gives the copy its own entry map.
func (t *Tree[N]) Fork(copyNode func(N) N) (Tree[N], bool) {
	descs, ok := t.Descs.Fork()
	if !ok {
		return Tree[N]{}, false
	}
	nodes := make(map[uint64]N, len(t.Nodes))
	for ino, n := range t.Nodes {
		c := copyNode(n)
		c.inode().Dirents = maps.Clone(n.inode().Dirents)
		nodes[ino] = c
	}
	return Tree[N]{Nodes: nodes, Root: t.Root, Descs: descs}, true
}

// Orphans finishes a mount's namespace rebuild. An entry whose inode the
// model did not find gets a damaged placeholder from stub; the nodes the
// root reaches through undamaged directories are marked; a damaged node
// none reaches is dropped, and every other node none reaches — left by an
// interrupted operation, or unlinked while open — is returned, in inode
// order, for the model's orphan pass to reclaim.
func (t *Tree[N]) Orphans(stub func(ino uint64) N) []N {
	for _, n := range t.Nodes {
		for _, de := range n.inode().Dirents {
			if _, ok := t.Nodes[de.Ino]; !ok {
				t.Nodes[de.Ino] = stub(de.Ino)
			}
		}
	}
	if t.seen == nil {
		t.seen = map[uint64]bool{}
	}
	seen := t.seen
	clear(seen)
	seen[t.Root] = true
	t.mark(t.Nodes[t.Root], seen)
	var out []N
	for ino, n := range t.Nodes {
		switch {
		case seen[ino]:
		case n.inode().Damaged:
			delete(t.Nodes, ino)
		default:
			out = append(out, n)
		}
	}
	slices.SortFunc(out, func(a, b N) int { return cmp.Compare(a.inode().Ino, b.inode().Ino) })
	return out
}

// mark adds every node n reaches to seen; a damaged directory reaches
// nothing.
func (t *Tree[N]) mark(n N, seen map[uint64]bool) {
	d := n.inode()
	if d.Type != TypeDir || d.Damaged {
		return
	}
	for _, de := range d.Dirents {
		if seen[de.Ino] {
			continue
		}
		seen[de.Ino] = true
		if c, ok := t.Nodes[de.Ino]; ok {
			t.mark(c, seen)
		}
	}
}

// Walk resolves path from root one component at a time. step(dir, name)
// returns dir's child called name: it first checks that dir can be walked
// through at all, in the model's own order (a non-directory is ErrNotDir,
// a node the model found damaged ErrIO), then reports a missing name as
// ErrNotExist. A zero root — an unformatted or unmounted model — is
// ErrCorrupt.
func Walk[N comparable](root N, path string, step func(dir N, name string) (N, error)) (N, error) {
	var zero N
	if root == zero {
		return zero, ErrCorrupt
	}
	n := root
	for rest := Clean(path)[1:]; rest != ""; {
		var name string
		name, rest, _ = strings.Cut(rest, "/")
		var err error
		if n, err = step(n, name); err != nil {
			return zero, err
		}
	}
	return n, nil
}

// WalkParent resolves the directory that holds path's last component and
// returns it with that name. The root has no parent (ErrInvalid), and a
// name that cannot be stored is ErrNameTooLong. The directory gets the
// checks step gives every directory it walks through: step(dir, "") runs
// them, and no directory holds the empty name, so one that passes answers
// ErrNotExist.
func WalkParent[N comparable](root N, path string, step func(dir N, name string) (N, error)) (N, string, error) {
	var zero N
	dir, name := SplitPath(path)
	if name == "" {
		return zero, "", ErrInvalid
	}
	if !ValidName(name) {
		return zero, "", ErrNameTooLong
	}
	p, err := Walk(root, dir, step)
	if err != nil {
		return zero, "", err
	}
	if _, err := step(p, ""); err != nil && err != ErrNotExist {
		return zero, "", err
	}
	return p, name, nil
}

// CheckReplace reports whether rename may put a source of type typ over an
// existing victim of type vtyp: a directory only replaces an empty
// directory, and a file only a file.
func CheckReplace(typ, vtyp FileType, vempty bool) error {
	switch {
	case typ == TypeDir && vtyp != TypeDir:
		return ErrNotDir
	case typ == TypeDir && !vempty:
		return ErrNotEmpty
	case typ != TypeDir && vtyp == TypeDir:
		return ErrIsDir
	}
	return nil
}

// SortDirEnts orders directory entries by name, as ReadDir returns them.
func SortDirEnts(ents []DirEnt) {
	slices.SortFunc(ents, func(a, b DirEnt) int { return strings.Compare(a.Name, b.Name) })
}

// FDTable is a model's descriptor table. Each descriptor names the inode it
// opened and carries a per-open value V: the inode's DRAM node for most
// models, the per-descriptor state for SplitFS. The table counts each
// inode's open descriptors and applies the one lifetime rule an inode has:
// once it has no links and no open descriptors it is reclaimed, by
// whichever of Unlinked and Close comes last. Until then an unlinked inode
// stays readable and writable through its descriptors, invisible by path,
// and its number is not reused; a crash in that window leaves an
// unreachable inode for the model's mount-time orphan pass.
//
// The zero table is empty; descriptors count up from 3 after each Reset.
// A model holds a handful of descriptors at a time, so the table is a slice
// in descriptor order: it allocates only when it outgrows its high-water
// mark, and a linear scan beats hashing at this size.
type FDTable[V any] struct {
	open []openFD[V]
	n    FD
}

// openFD is one open descriptor. unlinked records that its inode's last
// link is gone: Unlinked sets it on every descriptor of the inode.
type openFD[V any] struct {
	fd       FD
	ino      uint64
	v        V
	unlinked bool
}

// Reset forgets every descriptor without reclaiming anything: the model is
// formatting, mounting or unmounting, and rebuilds its inodes from media.
func (t *FDTable[V]) Reset() {
	clear(t.open)
	t.open = t.open[:0]
	t.n = 0
}

// Fork returns an empty table that numbers its descriptors on from where t
// does, and false when t has a descriptor open: a model forks only with
// none open (see Forker).
func (t *FDTable[V]) Fork() (FDTable[V], bool) {
	return FDTable[V]{n: t.n}, len(t.open) == 0
}

// Rewrite returns data resized to size with p at off, in a new slice
// unless it only shrinks. A model that never writes file data in place
// shares it with its forks (Forker).
func Rewrite(data []byte, size, off int64, p []byte) []byte {
	if len(p) == 0 && size <= int64(len(data)) {
		return data[:size]
	}
	d := make([]byte, size)
	copy(d, data)
	copy(d[off:], p)
	return d
}

// Open returns a new descriptor on inode ino carrying v.
func (t *FDTable[V]) Open(ino uint64, v V) FD {
	fd := 3 + t.n
	t.n++
	t.open = append(t.open, openFD[V]{fd: fd, ino: ino, v: v})
	return fd
}

func (t *FDTable[V]) find(fd FD) int {
	for i := range t.open {
		if t.open[i].fd == fd {
			return i
		}
	}
	return -1
}

// Get returns fd's per-open value, or ErrBadFD.
func (t *FDTable[V]) Get(fd FD) (V, error) {
	i := t.find(fd)
	if i < 0 {
		var zero V
		return zero, ErrBadFD
	}
	return t.open[i].v, nil
}

// Opens counts the descriptors open on inode ino.
func (t *FDTable[V]) Opens(ino uint64) int {
	n := 0
	for i := range t.open {
		if t.open[i].ino == ino {
			n++
		}
	}
	return n
}

// OpenFDs implements FDCounter.
func (t *FDTable[V]) OpenFDs() int { return len(t.open) }

// Close releases fd; closing the last descriptor of an inode with no links
// left reclaims it.
func (t *FDTable[V]) Close(fd FD, reclaim func(ino uint64)) error {
	i := t.find(fd)
	if i < 0 {
		return ErrBadFD
	}
	o := t.open[i]
	t.open = slices.Delete(t.open, i, i+1)
	if o.unlinked && t.Opens(o.ino) == 0 {
		reclaim(o.ino)
	}
	return nil
}

// Unlinked applies the lifetime rule to inode ino after unlink, rmdir or a
// rename over it left it with nlink links: with none left it is reclaimed
// now if no descriptor holds it, and at its last Close otherwise.
func (t *FDTable[V]) Unlinked(ino, nlink uint64, reclaim func(ino uint64)) {
	if nlink > 0 {
		return
	}
	held := false
	for i := range t.open {
		if t.open[i].ino == ino {
			t.open[i].unlinked = true
			held = true
		}
	}
	if !held {
		reclaim(ino)
	}
}
