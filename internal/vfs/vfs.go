// Package vfs defines the POSIX-like file-system interface that every file
// system in this repository implements, together with the error vocabulary,
// path helpers, and observable-state capture used by Chipmunk's oracle and
// consistency checker.
//
// The operation set matches the ten key system calls the paper tests
// (creat, mkdir, fallocate, write/pwrite, link, unlink, remove, rename,
// truncate, rmdir) plus open/close/fsync/sync plumbing.
package vfs

import "chipmunk/internal/persist"

// FD is a file descriptor handle returned by Open/Create.
type FD int

// FileType distinguishes regular files from directories.
type FileType uint8

const (
	// TypeRegular is a regular file.
	TypeRegular FileType = iota
	// TypeDir is a directory.
	TypeDir
)

func (t FileType) String() string {
	if t == TypeDir {
		return "dir"
	}
	return "file"
}

// Stat is the metadata Chipmunk compares between crash state and oracle
// (the paper compares stat output; timestamps are deliberately excluded, as
// Chipmunk does not check them).
type Stat struct {
	Ino   uint64
	Type  FileType
	Nlink uint32
	Size  int64
}

// DirEnt is one directory entry.
type DirEnt struct {
	Name string
	Ino  uint64
	Type FileType
}

// Caps describes the crash-consistency guarantees a file system advertises;
// the checker selects crash points and checks from these, mirroring how the
// paper configures Chipmunk per target (§3.3, §4.1).
type Caps struct {
	// Name identifies the system in reports ("nova", "pmfs", ...).
	Name string
	// Strong means metadata operations are synchronous and atomic without
	// fsync: crash points are injected during and after every system call.
	// Weak systems (ext4-DAX, XFS-DAX) get crash points only after
	// fsync/fdatasync/sync.
	Strong bool
	// AtomicWrite means data writes are all-or-nothing even across a crash
	// (WineFS strict mode). When false, a torn write is legal as long as
	// every byte is either old or new data at the right offset.
	AtomicWrite bool
	// SyncDataWrites means file data is durable when write returns (strong
	// PM systems). ext4-DAX only promises this after fsync.
	SyncDataWrites bool
}

// FS is the file-system interface under test. Implementations are single-
// threaded (the paper runs workloads sequentially). All paths are absolute,
// slash-separated, and already cleaned by the caller.
type FS interface {
	// Mkfs formats the underlying device and leaves the system mounted.
	Mkfs() error
	// Mount attaches to an existing (possibly crashed) image, running
	// recovery. It must be callable on any crash state.
	Mount() error
	// Unmount detaches; volatile state is discarded.
	Unmount() error
	// Caps reports the advertised guarantees.
	Caps() Caps

	Create(path string) (FD, error)
	Open(path string) (FD, error)
	Close(fd FD) error
	Mkdir(path string) error
	Rmdir(path string) error
	Link(oldPath, newPath string) error
	Unlink(path string) error
	Rename(oldPath, newPath string) error
	Truncate(path string, size int64) error
	Fallocate(fd FD, off, length int64) error

	Pwrite(fd FD, data []byte, off int64) (int, error)
	Pread(fd FD, buf []byte, off int64) (int, error)
	Fsync(fd FD) error
	Sync() error

	Stat(path string) (Stat, error)
	ReadDir(path string) ([]DirEnt, error)
}

// XattrFS is the optional extended-attribute interface. Of the tested
// systems only ext4-DAX and XFS-DAX support xattrs (§4.1), matching the
// paper's methodology; the reference model implements it so the oracle can
// track them.
type XattrFS interface {
	Setxattr(path, name string, value []byte) error
	Getxattr(path, name string) ([]byte, error)
	Removexattr(path, name string) error
	Listxattr(path string) ([]string, error)
}

// FDCounter is an optional interface: file systems that track open
// descriptors report how many are live, so tests can assert that recovery
// and application paths close everything they open (FD-leak detection).
type FDCounter interface {
	OpenFDs() int
}

// Forker is an optional interface: a model that copies its whole DRAM state
// forks at an op boundary instead of running again from Mkfs. Fork returns
// a model over pm, a device equal to f's now, that behaves as f would and
// shares nothing with it; nil when f cannot fork: a descriptor is open,
// per-syscall deferred work is pending (never at an op boundary), or pm is
// not the kind of space the model runs on (NOVA: a whole-device
// *persist.PM).
type Forker interface {
	Fork(pm persist.Space) FS
}

// Remounter is an optional interface: a model that mounts again in place.
// An instance lives for one mount at a time, and Remount rewinds it: it
// drops every DRAM structure the last Mkfs or mount built — keeping the
// storage of each for the next — and mounts the space the model was built
// over again, whatever that space now holds. The result must equal Mount's
// on a fresh instance from the same constructor: the same error, and the
// same reads, writes and answers after it, never anything of an earlier
// mount. What the rewind does not clear it leaves unusable (an emptied
// map, an empty free bitmap) until the mount sets it again.
type Remounter interface {
	Remount() error
}
