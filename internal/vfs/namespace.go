package vfs

import (
	"slices"
	"strings"
)

// The DRAM side every guest model shares: one path walk over the model's
// own node type, one descriptor table, and one inode lifetime rule. What
// stays per model — persistent layout, journal or log discipline, recovery
// and its orphan pass, and every bug-injection site — never runs in here.

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
