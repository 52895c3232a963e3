package vfs_test

import (
	"errors"
	"slices"
	"testing"

	"chipmunk/internal/vfs"
)

// TestFDTableLifetimeRule: an inode is reclaimed exactly once, when both its
// links and its descriptors are gone, whichever goes last.
func TestFDTableLifetimeRule(t *testing.T) {
	var tbl vfs.FDTable[string]
	var reclaimed []uint64
	reclaim := func(ino uint64) { reclaimed = append(reclaimed, ino) }

	a := tbl.Open(7, "a")
	b := tbl.Open(7, "b")
	if a != 3 || b != 4 || tbl.Opens(7) != 2 || tbl.OpenFDs() != 2 {
		t.Fatalf("fds %d %d, opens %d, open fds %d", a, b, tbl.Opens(7), tbl.OpenFDs())
	}
	if v, err := tbl.Get(b); v != "b" || err != nil {
		t.Fatalf("get = %q, %v", v, err)
	}
	tbl.Unlinked(7, 1, reclaim) // a link is left
	tbl.Unlinked(7, 0, reclaim) // the last one, but two descriptors hold it
	if err := tbl.Close(a, reclaim); err != nil || len(reclaimed) != 0 {
		t.Fatalf("close of one of two descriptors: %v, reclaimed %v", err, reclaimed)
	}
	if err := tbl.Close(b, reclaim); err != nil || !slices.Equal(reclaimed, []uint64{7}) {
		t.Fatalf("last close: %v, reclaimed %v", err, reclaimed)
	}
	if _, err := tbl.Get(b); !errors.Is(err, vfs.ErrBadFD) {
		t.Fatalf("get of a closed fd: %v", err)
	}
	if err := tbl.Close(b, reclaim); !errors.Is(err, vfs.ErrBadFD) {
		t.Fatalf("second close: %v", err)
	}

	tbl.Unlinked(8, 0, reclaim) // nothing holds it: reclaimed now
	c := tbl.Open(9, "c")
	if err := tbl.Close(c, reclaim); err != nil || !slices.Equal(reclaimed, []uint64{7, 8}) {
		t.Fatalf("close of a linked inode: %v, reclaimed %v", err, reclaimed)
	}

	tbl.Open(10, "d")
	tbl.Unlinked(10, 0, reclaim)
	tbl.Reset() // a remount forgets descriptors and reclaims nothing
	if tbl.OpenFDs() != 0 || tbl.Opens(10) != 0 || len(reclaimed) != 2 || tbl.Open(11, "e") != 3 {
		t.Fatalf("after reset: %d open, reclaimed %v", tbl.OpenFDs(), reclaimed)
	}
}

// tree is a toy model for the walk: a node is a directory when it has a
// children map, and "bad" marks a node the model found damaged.
type tree struct {
	name     string
	children map[string]*tree
}

func treeStep(d *tree, name string) (*tree, error) {
	if d.name == "bad" {
		return nil, vfs.ErrIO
	}
	if d.children == nil {
		return nil, vfs.ErrNotDir
	}
	if c, ok := d.children[name]; ok {
		return c, nil
	}
	return nil, vfs.ErrNotExist
}

func TestWalk(t *testing.T) {
	file := &tree{name: "f"}
	bad := &tree{name: "bad", children: map[string]*tree{}}
	sub := &tree{name: "d", children: map[string]*tree{"f": file}}
	root := &tree{name: "/", children: map[string]*tree{"d": sub, "bad": bad}}

	for _, c := range []struct {
		path string
		want *tree
		err  error
	}{
		{"/", root, nil},
		{"/d/f", file, nil},
		{"//d/./f/", file, nil},
		{"/d/missing", nil, vfs.ErrNotExist},
		{"/d/f/x", nil, vfs.ErrNotDir},
		{"/bad/x", nil, vfs.ErrIO},
	} {
		if got, err := vfs.Walk(root, c.path, treeStep); got != c.want || err != c.err {
			t.Errorf("Walk(%q) = %v, %v; want %v, %v", c.path, got, err, c.want, c.err)
		}
	}
	if _, err := vfs.Walk[*tree](nil, "/d", treeStep); err != vfs.ErrCorrupt {
		t.Errorf("Walk from no root: %v, want ErrCorrupt", err)
	}

	for _, c := range []struct {
		path, name string
		want       *tree
		err        error
	}{
		{"/d/new", "new", sub, nil},
		{"/d/f", "f", sub, nil},
		{"/", "", nil, vfs.ErrInvalid},
		{"/d/abcdefghijklmnopqrstuvwxyz", "", nil, vfs.ErrNameTooLong},
		{"/d/f/x", "", nil, vfs.ErrNotDir},
		{"/bad/x", "", nil, vfs.ErrIO},
		{"/missing/x", "", nil, vfs.ErrNotExist},
	} {
		got, name, err := vfs.WalkParent(root, c.path, treeStep)
		if got != c.want || name != c.name || err != c.err {
			t.Errorf("WalkParent(%q) = %v, %q, %v; want %v, %q, %v", c.path, got, name, err, c.want, c.name, c.err)
		}
	}
}

func TestCheckReplace(t *testing.T) {
	dir, file := vfs.TypeDir, vfs.TypeRegular
	for _, c := range []struct {
		typ, vtyp vfs.FileType
		empty     bool
		want      error
	}{
		{file, file, true, nil},
		{file, dir, true, vfs.ErrIsDir},
		{dir, file, true, vfs.ErrNotDir},
		{dir, dir, false, vfs.ErrNotEmpty},
		{dir, dir, true, nil},
	} {
		if got := vfs.CheckReplace(c.typ, c.vtyp, c.empty); got != c.want {
			t.Errorf("CheckReplace(%v over %v, empty %v) = %v, want %v", c.typ, c.vtyp, c.empty, got, c.want)
		}
	}
}
