// Package nova implements a NOVA-like log-structured PM file system
// [Xu & Swanson, FAST '16], plus the NOVA-Fortis extensions [SOSP '17]
// (inode replication and checksums) behind a mode flag.
//
// Architecture, mirroring the real system:
//
//   - Every inode owns a private log of fixed-size entries held in a linked
//     list of log pages. Directory logs hold dentry add/remove entries;
//     file logs hold write and attribute entries that reference data pages.
//   - Data writes are copy-on-write at file-page granularity: a write
//     allocates fresh data pages, copies/merges content with non-temporal
//     stores, appends write entries, and atomically publishes them by
//     advancing the log tail pointer (an 8-byte in-place update).
//   - Operations spanning multiple inodes (link, unlink, rename, mkdir,
//     rmdir) use a small redo journal to update the affected tail/nlink
//     words atomically.
//   - Free-page lists, the directory-entry maps, and the file-page radix
//     trees live only in DRAM and are rebuilt by scanning logs at mount.
//
// The bugs of Table 1 (ids 1-12) are injected behind bugs.Set flags; see
// the package-level documentation of chipmunk/internal/bugs.
package nova

import (
	"encoding/binary"
	"hash/crc32"

	"chipmunk/internal/vfs"
)

const (
	// PageSize is both the allocation unit and the file-page granularity.
	PageSize = 4096
	// InodeSize is the on-PM inode footprint (primary + Fortis replica).
	InodeSize = 256
	// EntrySize is the fixed log-entry size (one cache line).
	EntrySize = 64
	// Magic identifies a formatted NOVA image.
	Magic = 0x4E4F5641 // "NOVA"

	// Superblock layout (page 0).
	sbMagicOff   = 0
	sbFortisOff  = 8  // 1 if formatted in Fortis mode
	sbPagesOff   = 16 // total pages on device
	sbInodesOff  = 24 // number of inode slots
	sbVersionOff = 32

	// Region layout in pages.
	sbPage         = 0
	journalPage    = 1
	freeLogPage    = 2 // Fortis free-log (bug 11's persistent free records)
	inodeTblPage   = 3
	inodeTblPages  = 8                            // 8 pages * 16 inodes = 128 inodes
	csumTablePage  = inodeTblPage + inodeTblPages // Fortis per-page data csums
	csumTablePages = 4                            // covers devices up to 16 MiB
	poolStartPage  = csumTablePage + csumTablePages

	// InodeCount is the number of inode slots.
	InodeCount = inodeTblPages * (PageSize / InodeSize)

	// RootIno is the root directory's inode number (slot index).
	RootIno = 1

	// Inode field offsets (within the 128-byte primary half).
	inoValidOff   = 0   // u32: 1 = in use
	inoTypeOff    = 4   // u32: vfs.FileType
	inoNlinkOff   = 8   // u64
	inoHeadOff    = 16  // u64: first log page (pool page index), 0 = none
	inoTailOff    = 24  // u64: absolute device offset one past last valid entry
	inoCsumOff    = 120 // u32 crc of bytes [0,120) — Fortis only
	inoReplicaOff = 128 // replica copy of [0,128) — Fortis only

	// Log page layout: entries fill the page up to logNextOff; the 8 bytes
	// at logNextOff hold the pool-page index of the next log page (0 =
	// end). Real NOVA packs 4 KB pages with entries; we deliberately scale
	// a "log page" down to a few entries so that the page-chaining code —
	// where Table 1 bug 1 lives — is exercised by the small ACE workloads,
	// just as multi-page logs are routine on real multi-GB devices.
	entriesPerPage = 3
	logNextOff     = entriesPerPage * EntrySize

	// Log entry types.
	etInvalid      = 0
	etDentryAdd    = 1
	etDentryRemove = 2
	etWrite        = 3
	etAttr         = 4

	// Entry header offsets.
	entType  = 0 // u8
	entFlags = 1 // u8: bit 0 = invalidated in place
	entCsum  = 4 // u32 over payload [8,64) — Fortis only
	// Payload begins at byte 8.

	// Dentry add/remove payload.
	deIno     = 8  // u64 target inode
	deFType   = 16 // u8
	deNameLen = 17 // u8
	deName    = 18 // up to 46 bytes

	// Write entry payload.
	weFilePage = 8  // u64 file page index
	wePoolPage = 16 // u64 data pool page index
	weSizeHint = 24 // u64 file size after this write
	weFalloc   = 32 // u8: 1 if this entry came from fallocate
	weZeroFrom = 40 // u64: valid bytes in page for Fortis csum (unused otherwise)

	// Attr (truncate) entry payload.
	atSize = 8 // u64 new file size
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func csum32(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// inodeOff returns the device offset of inode slot ino.
func inodeOff(ino uint64) int64 {
	return int64(inodeTblPage)*PageSize + int64(ino)*InodeSize
}

// pageOff returns the device offset of pool page p (absolute page index).
func pageOff(p uint64) int64 { return int64(p) * PageSize }

// entry is the decoded form of a log entry.
type entry struct {
	typ     uint8
	invalid bool
	csum    uint32

	// dentry fields
	ino   uint64
	ftype vfs.FileType
	name  string

	// write fields
	filePage uint64
	poolPage uint64
	sizeHint uint64
	falloc   bool

	// attr fields
	size uint64
}

// encode serializes e. Fortis callers stamp the csum afterwards (or
// deliberately skip it — bug 9).
func (e entry) encode() (b [EntrySize]byte) {
	b[entType] = e.typ
	if e.invalid {
		b[entFlags] = 1
	}
	switch e.typ {
	case etDentryAdd, etDentryRemove:
		binary.LittleEndian.PutUint64(b[deIno:], e.ino)
		b[deFType] = byte(e.ftype)
		b[deNameLen] = byte(len(e.name))
		copy(b[deName:], e.name)
	case etWrite:
		binary.LittleEndian.PutUint64(b[weFilePage:], e.filePage)
		binary.LittleEndian.PutUint64(b[wePoolPage:], e.poolPage)
		binary.LittleEndian.PutUint64(b[weSizeHint:], e.sizeHint)
		if e.falloc {
			b[weFalloc] = 1
		}
	case etAttr:
		binary.LittleEndian.PutUint64(b[atSize:], e.size)
	}
	return b
}

// payloadCsum computes the Fortis checksum of an entry loaded from PM.
func payloadCsum(b []byte) uint32 { return csum32(b[8:EntrySize]) }

// decodeEntry parses an entry from raw bytes.
func decodeEntry(b []byte) entry {
	e := entry{
		typ:     b[entType],
		invalid: b[entFlags]&1 != 0,
		csum:    binary.LittleEndian.Uint32(b[entCsum:]),
	}
	switch e.typ {
	case etDentryAdd, etDentryRemove:
		e.ino = binary.LittleEndian.Uint64(b[deIno:])
		e.ftype = vfs.FileType(b[deFType])
		n := int(b[deNameLen])
		if n > EntrySize-deName {
			n = EntrySize - deName
		}
		e.name = string(b[deName : deName+n])
	case etWrite:
		e.filePage = binary.LittleEndian.Uint64(b[weFilePage:])
		e.poolPage = binary.LittleEndian.Uint64(b[wePoolPage:])
		e.sizeHint = binary.LittleEndian.Uint64(b[weSizeHint:])
		e.falloc = b[weFalloc] != 0
	case etAttr:
		e.size = binary.LittleEndian.Uint64(b[atSize:])
	}
	return e
}
