package vfs_test

import (
	"errors"
	"testing"

	"chipmunk/internal/vfs"
)

// TestUnlinkWhileOpen pins the one inode lifetime rule on every system: a
// file whose last link goes away — by unlink, or by a rename over it —
// while a descriptor holds it stays readable and writable through that
// descriptor, invisible by path, and its inode number is not reused until
// the last close. Regression for a fuzz-found NOVA panic, where a mkdir
// reused the freed inode and a write through the stale descriptor landed in
// the directory, and for PMFS and WineFS, which destroyed the inode at
// unlink and let the next create reuse its slot.
func TestUnlinkWhileOpen(t *testing.T) {
	for _, s := range systems() {
		for _, how := range []string{"unlink", "rename-over"} {
			t.Run(s.name+"/"+how, func(t *testing.T) {
				fs, _ := s.formatted(t)
				must := func(err error) {
					t.Helper()
					if err != nil {
						t.Fatal(err)
					}
				}
				fd, err := fs.Create("/victim")
				must(err)
				_, err = fs.Pwrite(fd, []byte("before"), 0)
				must(err)
				victim, err := fs.Stat("/victim")
				must(err)
				if how == "unlink" {
					must(fs.Unlink("/victim"))
				} else {
					other, err := fs.Create("/other")
					must(err)
					must(fs.Close(other))
					must(fs.Rename("/other", "/victim"))
				}

				// Allocate aggressively: none of these may reuse the ino.
				must(fs.Mkdir("/d0"))
				fd2, err := fs.Create("/f0")
				must(err)
				for _, p := range []string{"/d0", "/f0", "/victim"} {
					if st, err := fs.Stat(p); err == nil && st.Ino == victim.Ino {
						t.Fatalf("%s reused ino %d of the unlinked-but-open file", p, victim.Ino)
					}
				}
				if _, err := fs.Stat("/victim"); how == "unlink" && !errors.Is(err, vfs.ErrNotExist) {
					t.Fatalf("stat of the unlinked name: %v, want ENOENT", err)
				}

				// The descriptor still reaches the original file.
				_, err = fs.Pwrite(fd, []byte("after"), 6)
				must(err)
				must(fs.Fallocate(fd, 0, 16))
				must(fs.Fsync(fd))
				buf := make([]byte, 32)
				n, err := fs.Pread(fd, buf, 0)
				must(err)
				if want := "beforeafter\x00\x00\x00\x00\x00"; string(buf[:n]) != want {
					t.Fatalf("read through the descriptor = %q, want %q", buf[:n], want)
				}

				must(fs.Close(fd2))
				must(fs.Close(fd))
				if err := fs.Close(fd); !errors.Is(err, vfs.ErrBadFD) {
					t.Fatalf("second close: %v, want EBADF", err)
				}
				if n := fs.(vfs.FDCounter).OpenFDs(); n != 0 {
					t.Fatalf("%d descriptors open after the last close", n)
				}
				if _, err := vfs.Capture(fs); err != nil {
					t.Fatalf("capture after the last close: %v", err)
				}
			})
		}
	}
}
