package vfs

import (
	"errors"
	"fmt"
)

// Sentinel errors shared by all file systems, mirroring the POSIX errnos
// the tested operations can return. The checker treats any error from Mount
// as a crash-consistency failure, and compares op-level errors against the
// oracle's.
var (
	// ErrNotExist corresponds to ENOENT.
	ErrNotExist = errors.New("no such file or directory")
	// ErrExist corresponds to EEXIST.
	ErrExist = errors.New("file exists")
	// ErrNotDir corresponds to ENOTDIR.
	ErrNotDir = errors.New("not a directory")
	// ErrIsDir corresponds to EISDIR.
	ErrIsDir = errors.New("is a directory")
	// ErrNotEmpty corresponds to ENOTEMPTY.
	ErrNotEmpty = errors.New("directory not empty")
	// ErrInvalid corresponds to EINVAL.
	ErrInvalid = errors.New("invalid argument")
	// ErrNoSpace corresponds to ENOSPC.
	ErrNoSpace = errors.New("no space left on device")
	// ErrBadFD corresponds to EBADF.
	ErrBadFD = errors.New("bad file descriptor")
	// ErrNameTooLong corresponds to ENAMETOOLONG.
	ErrNameTooLong = errors.New("file name too long")
	// ErrBusy corresponds to EBUSY (e.g. rename onto a non-empty dir).
	ErrBusy = errors.New("device or resource busy")
	// ErrCorrupt is returned by Mount when the on-media state cannot be
	// recovered — the "file system unmountable" consequence in Table 1.
	ErrCorrupt = errors.New("file system image corrupt")
	// ErrIO corresponds to EIO: an operation failed against media state
	// (e.g. checksum mismatch in NOVA-Fortis).
	ErrIO = errors.New("input/output error")
)

// Corruptf returns ErrCorrupt with what recovery found wrong.
func Corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}
