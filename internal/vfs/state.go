package vfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"sort"
	"strings"
)

// FileState is the observable state of one file or directory: everything
// the checker compares between a crash state and the oracle. Inode numbers
// are captured but never compared directly (they differ across file
// systems); instead hard-link structure is compared via path partitions.
type FileState struct {
	Path    string
	Type    FileType
	Nlink   uint32
	Size    int64
	Data    []byte   // regular files only
	Entries []string // directories only, sorted child names
	Xattrs  []string // "name=value" pairs, sorted (XattrFS systems only)
	ino     uint64
}

// SetIno sets the inode number link partitions group by (a State built without Capture).
func (f *FileState) SetIno(ino uint64) { f.ino = ino }

// Equal compares two file states (ignoring inode numbers).
func (f FileState) Equal(other FileState) bool {
	return f.Path == other.Path &&
		f.Type == other.Type &&
		f.Nlink == other.Nlink &&
		f.Size == other.Size &&
		bytes.Equal(f.Data, other.Data) &&
		equalStrings(f.Entries, other.Entries) &&
		equalStrings(f.Xattrs, other.Xattrs)
}

// Describe renders the state compactly for diffs and bug reports.
func (f FileState) Describe() string {
	x := ""
	if len(f.Xattrs) > 0 {
		x = fmt.Sprintf(" xattrs=[%s]", strings.Join(f.Xattrs, ","))
	}
	if f.Type == TypeDir {
		return fmt.Sprintf("dir nlink=%d entries=[%s]%s", f.Nlink, strings.Join(f.Entries, ","), x)
	}
	return fmt.Sprintf("file nlink=%d size=%d data=%x%s", f.Nlink, f.Size, summarize(f.Data), x)
}

func summarize(b []byte) []byte {
	if len(b) <= 32 {
		return b
	}
	out := append([]byte(nil), b[:16]...)
	return append(out, b[len(b)-16:]...)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// State is the full observable state of a mounted file system, keyed by
// absolute path.
type State map[string]FileState

// Scratch recycles the allocations of repeated Captures: the state map, the
// file-content buffers, and the directory-entry name slices all come from
// reusable storage. The State returned by CaptureWith — and every slice it
// references — is valid only until the next CaptureWith on the same
// scratch, so use it for transient captures (comparing a crash state
// against an oracle) and plain Capture for captures that must persist
// (recording oracle states).
type Scratch struct {
	st    State
	data  []byte
	dUsed int
	dNeed int
	names []string
	nUsed int
	nNeed int
}

// takeData returns an n-byte buffer from the scratch's content arena, nil
// for none whatever the arena held before.
func (s *Scratch) takeData(n int) []byte {
	if n == 0 {
		return nil
	}
	s.dNeed += n
	if s.dUsed+n > len(s.data) {
		size := s.dNeed
		if size < 2*len(s.data) {
			size = 2 * len(s.data)
		}
		if size < 4096 {
			size = 4096
		}
		s.data = make([]byte, size)
		s.dUsed = 0
	}
	b := s.data[s.dUsed : s.dUsed+n : s.dUsed+n]
	s.dUsed += n
	return b
}

// takeNames returns an empty string slice with capacity n from the
// scratch's name arena, nil for none.
func (s *Scratch) takeNames(n int) []string {
	if n == 0 {
		return nil
	}
	s.nNeed += n
	if s.nUsed+n > len(s.names) {
		size := s.nNeed
		if size < 2*len(s.names) {
			size = 2 * len(s.names)
		}
		if size < 64 {
			size = 64
		}
		s.names = make([]string, size)
		s.nUsed = 0
	}
	out := s.names[s.nUsed : s.nUsed : s.nUsed+n]
	s.nUsed += n
	return out
}

// Capture walks the mounted file system from the root and records every
// file and directory, including file contents. The returned State owns all
// its memory.
func Capture(fs FS) (State, error) {
	st := make(State)
	if err := captureDir(fs, "/", st, nil); err != nil {
		return nil, err
	}
	return st, nil
}

// CaptureWith is Capture backed by reusable scratch storage (nil scratch
// degrades to Capture). See Scratch for the lifetime contract.
func CaptureWith(fs FS, s *Scratch) (State, error) {
	if s == nil {
		return Capture(fs)
	}
	if s.st == nil {
		s.st = make(State, 16)
	} else {
		clear(s.st)
	}
	s.dUsed, s.dNeed = 0, 0
	s.nUsed, s.nNeed = 0, 0
	if err := captureDir(fs, "/", s.st, s); err != nil {
		return nil, err
	}
	return s.st, nil
}

func captureDir(fs FS, dir string, st State, s *Scratch) error {
	info, err := fs.Stat(dir)
	if err != nil {
		return fmt.Errorf("stat %s: %w", dir, err)
	}
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("readdir %s: %w", dir, err)
	}
	var names []string
	if s != nil {
		names = s.takeNames(len(ents))
	} else {
		names = make([]string, 0, len(ents))
	}
	for _, e := range ents {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	st[dir] = FileState{
		Path:    dir,
		Type:    TypeDir,
		Nlink:   info.Nlink,
		Entries: names,
		Xattrs:  captureXattrs(fs, dir),
		ino:     info.Ino,
	}
	for _, e := range ents {
		child := Join(dir, e.Name)
		ci, err := fs.Stat(child)
		if err != nil {
			return fmt.Errorf("stat %s: %w", child, err)
		}
		if ci.Type == TypeDir {
			// A corrupt image can list a directory inside itself or below
			// itself (an empty name, a dirent naming an ancestor's inode);
			// descending would never end.
			for p := dir; ; p, _ = SplitPath(p) {
				if st[p].ino == ci.Ino {
					return fmt.Errorf("stat %s: directory cycle through %s", child, p)
				}
				if p == "/" {
					break
				}
			}
			if err := captureDir(fs, child, st, s); err != nil {
				return err
			}
			continue
		}
		data, err := readAll(fs, child, ci.Size, s)
		if err != nil {
			return fmt.Errorf("read %s: %w", child, err)
		}
		st[child] = FileState{
			Path:   child,
			Type:   TypeRegular,
			Nlink:  ci.Nlink,
			Size:   ci.Size,
			Data:   data,
			Xattrs: captureXattrs(fs, child),
			ino:    ci.Ino,
		}
	}
	return nil
}

func readAll(fs FS, path string, size int64, s *Scratch) ([]byte, error) {
	fd, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer fs.Close(fd)
	var buf []byte
	if s != nil {
		buf = s.takeData(int(size))
	} else {
		buf = make([]byte, size)
	}
	n, err := fs.Pread(fd, buf, 0)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// captureXattrs collects "name=value" pairs when the file system supports
// extended attributes.
func captureXattrs(fs FS, path string) []string {
	xfs, ok := fs.(XattrFS)
	if !ok {
		return nil
	}
	names, err := xfs.Listxattr(path)
	if err != nil {
		return nil
	}
	out := make([]string, 0, len(names))
	for _, n := range names {
		v, err := xfs.Getxattr(path, n)
		if err != nil {
			continue
		}
		out = append(out, n+"="+string(v))
	}
	sort.Strings(out)
	return out
}

// Equal reports whether two states are observationally identical,
// including hard-link structure.
func (s State) Equal(other State) bool {
	return Diff(s, other) == ""
}

// Diff returns a human-readable description of the first difference between
// two states, or "" if they match. a is conventionally the crash state and
// b the oracle.
func Diff(a, b State) string {
	paths := make([]string, 0, len(a)+len(b))
	seen := map[string]bool{}
	for p := range a {
		paths = append(paths, p)
		seen[p] = true
	}
	for p := range b {
		if !seen[p] {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	for _, p := range paths {
		fa, okA := a[p]
		fb, okB := b[p]
		switch {
		case !okA:
			return fmt.Sprintf("%s: missing (oracle has %s)", p, fb.Describe())
		case !okB:
			return fmt.Sprintf("%s: unexpected (crash state has %s)", p, fa.Describe())
		case !fa.Equal(fb):
			return fmt.Sprintf("%s: mismatch\n  crash:  %s\n  oracle: %s", p, fa.Describe(), fb.Describe())
		}
	}
	if d := diffLinkPartition(a, b); d != "" {
		return d
	}
	return ""
}

// diffLinkPartition compares hard-link structure: paths sharing an inode in
// one state must share one in the other.
func diffLinkPartition(a, b State) string {
	pa := linkPartition(a)
	pb := linkPartition(b)
	if len(pa) != len(pb) {
		return fmt.Sprintf("hard-link structure differs: %d vs %d link groups", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			return fmt.Sprintf("hard-link group mismatch: %q vs %q", pa[i], pb[i])
		}
	}
	return ""
}

func linkPartition(s State) []string {
	groups := map[uint64][]string{}
	for p, f := range s {
		if f.Type == TypeRegular {
			groups[f.ino] = append(groups[f.ino], p)
		}
	}
	var out []string
	for _, g := range groups {
		sort.Strings(g)
		out = append(out, strings.Join(g, "|"))
	}
	sort.Strings(out)
	return out
}

// Identical reports whether s and o hold equal files under the same inode
// numbers, so that no comparison, link partition or SameInode can tell
// them apart.
func (s State) Identical(o State) bool {
	if len(s) != len(o) {
		return false
	}
	for p, f := range s {
		if g, ok := o[p]; !ok || f.ino != g.ino || !f.Equal(g) {
			return false
		}
	}
	return true
}

// Digest hashes s under seed without allocating: the sum of one hash per
// file over its path, type, nlink, size, data, entries, xattrs and inode
// number, so map order does not matter. Identical states digest equally.
func (s State) Digest(seed maphash.Seed) uint64 {
	var h maphash.Hash
	h.SetSeed(seed)
	var sum uint64
	for p, f := range s {
		h.Reset()
		writeString(&h, p)
		writeUint64(&h, uint64(f.Type))
		writeUint64(&h, uint64(f.Nlink))
		writeUint64(&h, uint64(f.Size))
		writeUint64(&h, f.ino)
		writeUint64(&h, uint64(len(f.Data)))
		h.Write(f.Data)
		for _, l := range [2][]string{f.Entries, f.Xattrs} {
			writeUint64(&h, uint64(len(l)))
			for _, e := range l {
				writeString(&h, e)
			}
		}
		sum += h.Sum64()
	}
	return sum
}

// writeString hashes s behind its length, so adjacent strings cannot run
// into each other.
func writeString(h *maphash.Hash, s string) {
	writeUint64(h, uint64(len(s)))
	h.WriteString(s)
}

func writeUint64(h *maphash.Hash, x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	h.Write(b[:])
}

// SameInode reports whether paths a and b name the same regular file (hard
// links) in this state.
func (s State) SameInode(a, b string) bool {
	fa, okA := s[a]
	fb, okB := s[b]
	return okA && okB &&
		fa.Type == TypeRegular && fb.Type == TypeRegular &&
		fa.ino == fb.ino
}

// Clone deep-copies a state.
func (s State) Clone() State {
	out := make(State, len(s))
	for p, f := range s {
		nf := f
		nf.Data = append([]byte(nil), f.Data...)
		nf.Entries = append([]string(nil), f.Entries...)
		nf.Xattrs = append([]string(nil), f.Xattrs...)
		out[p] = nf
	}
	return out
}

// Paths returns the sorted paths in the state.
func (s State) Paths() []string {
	out := make([]string, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
