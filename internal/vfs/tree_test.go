package vfs_test

import (
	"errors"
	"slices"
	"testing"

	"chipmunk/internal/vfs"
)

// tnode is a model's DRAM node: the shared inode plus an extra of its own.
type tnode struct {
	vfs.Inode
	extra []int
}

func dir(ino uint64, ents map[string]uint64) *tnode {
	n := &tnode{Inode: vfs.Inode{Ino: ino, Type: vfs.TypeDir, Nlink: 2, Dirents: map[string]vfs.Dirent{}}}
	for name, c := range ents {
		n.Dirents[name] = vfs.Dirent{Ino: c, Off: int64(c) * 64}
	}
	return n
}

func file(ino uint64) *tnode {
	return &tnode{Inode: vfs.Inode{Ino: ino, Type: vfs.TypeRegular, Nlink: 1, Size: 5}}
}

// newTree builds
//
//	/        1  {d: 2, f: 3, gone: 9, bad: 4, sick: 5}
//	/d       2  {x: 6}
//	/f       3  file with a stray entry map {w: 13}
//	/bad     4  damaged directory {y: 7}
//	/sick    5  damaged file
//	/d/x     6  file
//	7           file only the damaged directory links
//	8           directory nothing links {z: 10}
//	10          file only 8 links
//	11          damaged file nothing links
//	13          file only 3's stray entry links
//
// and entry gone names inode 9, which is not there.
func newTree() *vfs.Tree[*tnode] {
	var t vfs.Tree[*tnode]
	t.Reset(1)
	bad := dir(4, map[string]uint64{"y": 7})
	bad.Damaged = true
	sick := file(5)
	sick.Damaged = true
	lost := file(11)
	lost.Damaged = true
	stray := file(3)
	stray.Dirents = map[string]vfs.Dirent{"w": {Ino: 13}}
	for _, n := range []*tnode{
		dir(1, map[string]uint64{"d": 2, "f": 3, "gone": 9, "bad": 4, "sick": 5}),
		dir(2, map[string]uint64{"x": 6}), stray, bad, sick, file(6), file(7),
		dir(8, map[string]uint64{"z": 10}), file(10), lost, file(13),
	} {
		t.Nodes[n.Ino] = n
	}
	return &t
}

// TestTree: the read side every embedding model answers through — the walk
// step's error order, lookup, the resolution that begins each namespace op
// and its error order, ReadDir, Open, the orphan pass's reachability mark,
// and a fork's independence.
func TestTree(t *testing.T) {
	tr := newTree()

	// A damaged node is ErrIO before it is ErrNotDir or ErrNotExist; a
	// non-directory is ErrNotDir before a name is missing; an entry whose
	// inode is gone is ErrIO.
	for _, c := range []struct {
		path string
		ino  uint64
		err  error
	}{
		{"/", 1, nil},
		{"/d/x", 6, nil},
		{"/f/x", 0, vfs.ErrNotDir},
		{"/d/missing", 0, vfs.ErrNotExist},
		{"/gone", 0, vfs.ErrIO},
		{"/bad", 0, vfs.ErrIO},
		{"/bad/missing", 0, vfs.ErrIO},
		{"/sick", 0, vfs.ErrIO},
		{"/sick/x", 0, vfs.ErrIO},
	} {
		n, err := tr.Lookup(c.path)
		if err != c.err || (err == nil && n.Ino != c.ino) || (err != nil && n != nil) {
			t.Errorf("Lookup(%q) = %v, %v; want inode %d, %v", c.path, n, err, c.ino, c.err)
		}
	}
	if st, err := tr.Stat("/f"); err != nil || st != (vfs.Stat{Ino: 3, Type: vfs.TypeRegular, Nlink: 1, Size: 5}) {
		t.Errorf("Stat(/f) = %+v, %v", st, err)
	}
	var zero vfs.Tree[*tnode]
	if _, err := zero.Stat("/"); err != vfs.ErrCorrupt {
		t.Errorf("Stat on an empty tree: %v, want ErrCorrupt", err)
	}

	// The namespace ops' resolution, on a tree with an empty directory
	// /e (inode 12) besides. A vacant name's parent fails as the walk
	// does, then a taken name, dangling or not, is ErrExist.
	ns := newTree()
	ns.Nodes[12] = dir(12, nil)
	ns.Nodes[1].Dirents["e"] = vfs.Dirent{Ino: 12, Off: 12 * 64}
	for _, c := range []struct {
		path string
		dir  uint64
		err  error
	}{
		{"/d/new", 2, nil},
		{"/d/x", 0, vfs.ErrExist},
		{"/gone", 0, vfs.ErrExist},
		{"/bad/new", 0, vfs.ErrIO},
		{"/f/new", 0, vfs.ErrNotDir},
		{"/missing/new", 0, vfs.ErrNotExist},
		{"/", 0, vfs.ErrInvalid},
	} {
		p, name, err := ns.Vacant(c.path)
		if err != c.err || (err == nil && (p.Ino != c.dir || name != "new")) || (err != nil && p != nil) {
			t.Errorf("Vacant(%q) = %v, %q, %v; want directory %d, %v", c.path, p, name, err, c.dir, c.err)
		}
	}
	// An existing entry: a missing name is ErrNotExist, and an entry whose
	// node is gone or damaged ErrIO, before unlink's ErrIsDir or rmdir's
	// ErrNotDir and ErrNotEmpty.
	for _, c := range []struct {
		path string
		dir  bool
		ino  uint64
		err  error
	}{
		{"/d/x", false, 6, nil},
		{"/e", true, 12, nil},
		{"/d/missing", false, 0, vfs.ErrNotExist},
		{"/bad/y", false, 0, vfs.ErrIO},
		{"/gone", false, 0, vfs.ErrIO},
		{"/gone", true, 0, vfs.ErrIO},
		{"/sick", true, 0, vfs.ErrIO},
		{"/d", false, 0, vfs.ErrIsDir},
		{"/f", true, 0, vfs.ErrNotDir},
		{"/d", true, 0, vfs.ErrNotEmpty},
	} {
		r, err := ns.Removable(c.path, c.dir)
		if err != c.err || (err == nil && (r.Node.Ino != c.ino || r.Ino != c.ino || r.Dir != ns.Nodes[r.Dir.Ino])) ||
			(err != nil && r != (vfs.Ref[*tnode]{})) {
			t.Errorf("Removable(%q, %v) = %+v, %v; want inode %d, %v", c.path, c.dir, r, err, c.ino, c.err)
		}
	}
	// A rename onto itself moves nothing; one into its own subtree is
	// ErrInvalid before the source resolves; the source's errors come
	// before the target's, and a dangling victim before CheckReplace.
	for _, c := range []struct {
		from, to    string
		ino, victim uint64
		err         error
	}{
		{"/d/x", "/d//x", 0, 0, nil},
		{"/d/x", "/new", 6, 0, nil},
		{"/d", "/e", 2, 12, nil},
		{"/d/x", "/f", 6, 3, nil},
		{"/d", "/d/x/y", 0, 0, vfs.ErrInvalid},
		{"/missing", "/missing/y", 0, 0, vfs.ErrInvalid},
		{"/missing", "/bad/y", 0, 0, vfs.ErrNotExist},
		{"/sick", "/new", 0, 0, vfs.ErrIO},
		{"/d/x", "/bad/y", 0, 0, vfs.ErrIO},
		{"/d/x", "/f/y", 0, 0, vfs.ErrNotDir},
		{"/d", "/gone", 0, 0, vfs.ErrIO},
		{"/e", "/d", 0, 0, vfs.ErrNotEmpty},
		{"/e", "/f", 0, 0, vfs.ErrNotDir},
		{"/f", "/e", 0, 0, vfs.ErrIsDir},
	} {
		from, to, err := ns.Move(c.from, c.to)
		var ino, victim uint64
		if from.Node != nil {
			ino = from.Node.Ino
		}
		if to.Node != nil {
			victim = to.Node.Ino
		}
		_, name := vfs.SplitPath(c.to)
		if err != c.err || ino != c.ino || victim != c.victim || (ino != 0 && (to.Dir == nil || to.Name != name)) {
			t.Errorf("Move(%q, %q) = %+v, %+v, %v; want inode %d over %d, %v", c.from, c.to, from, to, err, c.ino, c.victim, c.err)
		}
	}

	// ReadDir lists names in order, each with its node's type; an entry
	// whose inode is gone lists as a file.
	ents, err := tr.ReadDir("/")
	want := []vfs.DirEnt{
		{"bad", 4, vfs.TypeDir}, {"d", 2, vfs.TypeDir}, {"f", 3, vfs.TypeRegular},
		{"gone", 9, vfs.TypeRegular}, {"sick", 5, vfs.TypeRegular},
	}
	if err != nil || !slices.Equal(ents, want) {
		t.Errorf("ReadDir(/) = %v, %v; want %v", ents, err, want)
	}
	if _, err := tr.ReadDir("/f"); err != vfs.ErrNotDir {
		t.Errorf("ReadDir(/f): %v, want ErrNotDir", err)
	}

	if _, err := tr.Open("/d"); err != vfs.ErrIsDir {
		t.Errorf("Open(/d): %v, want ErrIsDir", err)
	}
	fd, err := tr.Open("/d/x")
	if n, gerr := tr.Descs.Get(fd); err != nil || gerr != nil || n != tr.Nodes[6] || tr.OpenFDs() != 1 {
		t.Errorf("Open(/d/x) = %d, %v; descriptor holds %v, %v; %d open", fd, err, n, gerr, tr.OpenFDs())
	}
	if _, ok := tr.Fork(func(n *tnode) *tnode { c := *n; return &c }); ok {
		t.Error("a tree with a descriptor open forked")
	}
	if err := tr.Descs.Close(fd, func(uint64) {}); err != nil {
		t.Fatal(err)
	}

	// A fork shares no node and no entry map with its parent.
	fork, ok := tr.Fork(func(n *tnode) *tnode {
		c := *n
		c.extra = slices.Clone(n.extra)
		return &c
	})
	if !ok || len(fork.Nodes) != len(tr.Nodes) || fork.Root != 1 {
		t.Fatalf("fork: ok %v, %d nodes of %d, root %d", ok, len(fork.Nodes), len(tr.Nodes), fork.Root)
	}
	fork.Nodes[1].Dirents["new"] = vfs.Dirent{Ino: 3}
	delete(fork.Nodes[2].Dirents, "x")
	fork.Nodes[3].Size = 99
	if _, ok := tr.Nodes[1].Dirents["new"]; ok || len(tr.Nodes[2].Dirents) != 1 || tr.Nodes[3].Size != 5 {
		t.Error("a fork's change reached its parent")
	}
	tr.Nodes[2].Dirents["y"] = vfs.Dirent{Ino: 3}
	if _, ok := fork.Nodes[2].Dirents["y"]; ok {
		t.Error("a parent's change reached its fork")
	}
	delete(tr.Nodes[2].Dirents, "y")

	// The mark reaches through undamaged directories only, never through a
	// file's entries. The dangling entry gets a placeholder, which the root
	// reaches; the damaged file no one reaches goes; every other node no one
	// reaches is an orphan, in inode order.
	var stubbed []uint64
	orphans := tr.Orphans(func(ino uint64) *tnode {
		stubbed = append(stubbed, ino)
		return &tnode{Inode: vfs.Inode{Ino: ino, Damaged: true}}
	})
	var inos []uint64
	for _, n := range orphans {
		inos = append(inos, n.Ino)
	}
	if !slices.Equal(stubbed, []uint64{9}) || !slices.Equal(inos, []uint64{7, 8, 10, 13}) {
		t.Errorf("Orphans stubbed %v and returned %v; want [9] and [7 8 10 13]", stubbed, inos)
	}
	if _, ok := tr.Nodes[11]; ok {
		t.Error("an unreachable damaged node survived the orphan pass")
	}
	if _, err := tr.Stat("/gone"); !errors.Is(err, vfs.ErrIO) {
		t.Errorf("Stat(/gone) after the orphan pass: %v, want ErrIO", err)
	}
	tr.Drop()
	if _, err := tr.Stat("/"); err != vfs.ErrCorrupt || tr.OpenFDs() != 0 {
		t.Errorf("after Drop: %v, %d open", err, tr.OpenFDs())
	}
}

// TestTreeRewindSpares: a tree that rewinds for a remount resolves nothing
// until the mount resets it, and hands the nodes it held, and those the
// mount removed, back as spares of their kind, each once; a tree that
// never rewound keeps no node it removed.
func TestTreeRewindSpares(t *testing.T) {
	tr := newTree()
	tr.Remove(6)
	if _, ok := tr.Nodes[6]; ok {
		t.Fatal("Remove left the node in the tree")
	}
	if _, ok := tr.Spare(vfs.TypeRegular); ok {
		t.Fatal("a tree that never rewound handed out a spare")
	}
	tr.Rewind()
	if _, err := tr.Stat("/"); err != vfs.ErrCorrupt || len(tr.Nodes) != 0 {
		t.Fatalf("after Rewind: Stat(/) %v with %d nodes, want ErrCorrupt and none", err, len(tr.Nodes))
	}
	tr.Reset(1)
	tr.Nodes[1] = dir(1, nil)
	tr.Remove(1)
	tr.Rewind()
	got := map[vfs.FileType][]uint64{}
	for _, typ := range []vfs.FileType{vfs.TypeDir, vfs.TypeRegular} {
		for n, ok := tr.Spare(typ); ok; n, ok = tr.Spare(typ) {
			if n.Type != typ {
				t.Fatalf("Spare(%v) handed out a %v", typ, n.Type)
			}
			got[typ] = append(got[typ], n.Ino)
		}
		slices.Sort(got[typ])
	}
	// The first mount's ten nodes but the removed 6, then the second's
	// root, removed in its mount.
	if want := []uint64{1, 1, 2, 4, 8}; !slices.Equal(got[vfs.TypeDir], want) {
		t.Errorf("directory spares %v, want %v", got[vfs.TypeDir], want)
	}
	if want := []uint64{3, 5, 7, 10, 11, 13}; !slices.Equal(got[vfs.TypeRegular], want) {
		t.Errorf("file spares %v, want %v", got[vfs.TypeRegular], want)
	}
}
