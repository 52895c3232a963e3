package vfs_test

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"chipmunk/internal/ace"
	"chipmunk/internal/fs/memfs"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

// TestMemfsStateMatchesCapture holds memfs.FS.State, the oracle's direct
// capture, to vfs.Capture through the FS interface after every op of the
// conformance streams: the same State, deeply (inode numbers, non-nil empty
// slices and all), and the same hard-link partition.
func TestMemfsStateMatchesCapture(t *testing.T) {
	inputs := [][]workload.Workload{ace.Seq1(), ace.Seq2(), ace.Seq1Dax(), fuzzStream(1, 300)}
	checked := 0
	for _, ws := range inputs {
		for _, w := range ws {
			fs := memfs.New()
			if err := fs.Mkfs(); err != nil {
				t.Fatal(err)
			}
			compare := func(when string) {
				want, err := vfs.Capture(fs)
				if err != nil {
					t.Fatalf("%s %s: capture: %v", w.Name, when, err)
				}
				got := fs.State()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s: State differs from Capture:\n got  %v\n want %v", w.Name, when, got, want)
				}
				if d := vfs.Diff(got, want); d != "" {
					t.Fatalf("%s %s: %s", w.Name, when, d)
				}
				checked++
			}
			compare("after mkfs")
			workload.Run(fs, w, workload.Hooks{After: func(i int, op workload.Op, _ error) {
				compare(fmt.Sprintf("after op %d %v", i, op))
			}})
		}
	}
	if checked == 0 {
		t.Fatal("no state compared")
	}
}

// TestMemfsStateNeverAliasesLaterWrites: a State shares its files' data
// with the live tree, so no later op may write that data in place. Every
// op of a stream that shrinks and regrows, overwrites inside capacity,
// extends, renames, links, unlinks and sets xattrs is followed by a
// capture, and every earlier capture must still hash as it did when taken.
func TestMemfsStateNeverAliasesLaterWrites(t *testing.T) {
	fs := memfs.New()
	if err := fs.Mkfs(); err != nil {
		t.Fatal(err)
	}
	fd, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	pattern := func(b byte, n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = b + byte(i)
		}
		return p
	}
	ops := []func() error{
		func() error { _, err := fs.Pwrite(fd, pattern(1, 8192), 0); return err },
		func() error { return fs.Truncate("/f", 100) },
		func() error { _, err := fs.Pwrite(fd, pattern(2, 50), 10); return err },
		func() error { _, err := fs.Pwrite(fd, pattern(3, 4000), 50); return err },
		func() error { return fs.Truncate("/f", 8192) },
		func() error { _, err := fs.Pwrite(fd, pattern(4, 16), 8000); return err },
		func() error { return fs.Truncate("/f", 10) },
		func() error { return fs.Fallocate(fd, 0, 9000) },
		func() error { _, err := fs.Pwrite(fd, pattern(5, 64), 5); return err },
		func() error { return fs.Link("/f", "/g") },
		func() error { _, err := fs.Pwrite(fd, pattern(6, 32), 0); return err },
		func() error { return fs.Rename("/f", "/h") },
		func() error { return fs.Setxattr("/h", "user.a", []byte("1")) },
		func() error { return fs.Setxattr("/g", "user.a", []byte("2")) },
		func() error { return fs.Unlink("/g") },
		func() error { _, err := fs.Pwrite(fd, pattern(7, 128), 1); return err },
		func() error { return fs.Truncate("/h", 0) },
		func() error { _, err := fs.Pwrite(fd, pattern(8, 3), 0); return err },
	}
	var states []vfs.State
	var sums []uint64
	for i, op := range ops {
		if err := op(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		st := fs.State()
		states, sums = append(states, st), append(sums, stateSum(st))
		for j := range states {
			if stateSum(states[j]) != sums[j] {
				t.Fatalf("op %d changed the state captured after op %d", i, j)
			}
		}
	}
}

// stateSum hashes everything a State shows.
func stateSum(st vfs.State) uint64 {
	h := fnv.New64a()
	for _, p := range st.Paths() {
		f := st[p]
		fmt.Fprintf(h, "%s %d %d %d %q %q %x\n", p, f.Type, f.Nlink, f.Size, f.Entries, f.Xattrs, f.Data)
	}
	return h.Sum64()
}
