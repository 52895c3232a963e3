package pmem

// byteArena is a bump allocator for the device's transient byte copies:
// Load results and the in-flight Data captures NTStore/Flush make. Handing
// these out of one reusable buffer removes the dominant allocation sources
// on the crash-state check hot path (one fresh slice per guest read, one per
// durable-intent write).
//
// Lifetime contract: slices returned by take stay valid until the next
// reset — never across one. The device resets its arenas only at epoch
// boundaries where every outstanding slice is provably dead:
//
//   - the read arena at Device.Reset, which the engine calls before mounting
//     the next crash state (a file-system instance lives for one mount at a
//     time, and its Remount drops every Load result it held before reading
//     the image again). ext4-DAX and XFS-DAX keep a
//     replayed file's data as a slice of the Load that read its
//     transaction, so a mounted instance's file data lives here until the
//     next Reset; the engine never forks a mounted guest;
//   - the write arena at Fence / Reset / TrackingDevice.Rollback, the three
//     places the in-flight list is truncated (everything that outlives an
//     InFlight — trace entries, InFlightWrites results — is deep-copied).
//
// Growing mid-epoch abandons the current buffer: slices already handed out
// keep it alive, and the replacement is sized to the epoch's running total,
// so a steady-state epoch allocates nothing once the buffer has converged.
type byteArena struct {
	buf  []byte
	used int
	need int // bytes requested this epoch, the high-water sizing input
}

// take returns an n-byte slice with unspecified contents, capacity-clamped
// so caller appends cannot bleed into neighboring takes.
func (a *byteArena) take(n int) []byte {
	if n == 0 {
		return nil
	}
	a.need += n
	if a.used+n > len(a.buf) {
		size := a.need
		if size < 2*len(a.buf) {
			size = 2 * len(a.buf)
		}
		if size < 4096 {
			size = 4096
		}
		a.buf = make([]byte, size)
		a.used = 0
	}
	s := a.buf[a.used : a.used+n : a.used+n]
	a.used += n
	return s
}

// reset rewinds the arena for buffer reuse. Callers must guarantee no slice
// from the current epoch is still live (see the lifetime contract above).
func (a *byteArena) reset() { a.used, a.need = 0, 0 }
