package pmem

// UndoLog records byte ranges of crash-image buffers before they are
// mutated, so the buffers can be rolled back before the next crash state is
// checked. Chipmunk uses this because its checks (mount recovery, usability
// probes that create files everywhere and then delete them) write to the
// mounted crash image; rolling back only what was touched is much cheaper
// than re-copying a whole device image for every state.
//
// Records are dst-tagged: one log can cover several buffers at once (the
// engine tracks a device's volatile AND persistent images in a single log),
// and the saved bytes live in one reusable arena, so a steady-state
// save/rollback cycle allocates nothing.
type UndoLog struct {
	img     []byte // default destination for Save (nil when only SaveImage is used)
	records []undoRecord
	arena   []byte
}

// undoRecord points into the arena rather than holding its own copy:
// appends may reallocate the arena, but the (start, n) window stays valid
// because append copies the prefix.
type undoRecord struct {
	dst      []byte
	off      int64
	start, n int
}

// NewUndoLog wraps a mutable image. The log does not copy the image; it
// captures old contents lazily as Save is called. img may be nil when every
// range is saved through SaveImage.
func NewUndoLog(img []byte) *UndoLog {
	return &UndoLog{img: img}
}

// Save captures the current contents of img[off:off+n] so Rollback can
// restore them. Call before mutating the range.
func (u *UndoLog) Save(off int64, n int) { u.SaveImage(u.img, off, n) }

// SaveImage captures dst[off:off+n] for rollback. Call before mutating the
// range; dst may differ between calls (the engine saves ranges of both the
// volatile and the persistent image into one log).
func (u *UndoLog) SaveImage(dst []byte, off int64, n int) {
	if n <= 0 {
		return
	}
	start := len(u.arena)
	u.arena = append(u.arena, dst[off:off+int64(n)]...)
	u.records = append(u.records, undoRecord{dst: dst, off: off, start: start, n: n})
}

// Len reports how many ranges have been saved since the last Rollback.
func (u *UndoLog) Len() int { return len(u.records) }

// Bytes reports how many bytes of undo state are currently held.
func (u *UndoLog) Bytes() int64 { return int64(len(u.arena)) }

// Rollback restores all saved ranges in reverse order, clears the log, and
// returns the number of bytes restored. The arena is retained for reuse.
func (u *UndoLog) Rollback() int64 { return u.RollbackTo(UndoMark{}) }

// UndoMark is a position in an UndoLog.
type UndoMark struct{ records, arena int }

// Mark returns the log's current position, for RollbackTo.
func (u *UndoLog) Mark() UndoMark { return UndoMark{len(u.records), len(u.arena)} }

// RollbackTo restores the ranges saved since m in reverse order, drops them,
// and returns the bytes restored. Marks taken after m become invalid.
func (u *UndoLog) RollbackTo(m UndoMark) int64 {
	var restored int64
	for i := len(u.records) - 1; i >= m.records; i-- {
		r := u.records[i]
		copy(r.dst[r.off:], u.arena[r.start:r.start+r.n])
		restored += int64(r.n)
	}
	u.records = u.records[:m.records]
	u.arena = u.arena[:m.arena]
	return restored
}

// TrackingDevice wraps a Device so that every image mutation — including
// fence persists — is recorded in an undo log; used to run checks on a
// mounted crash image and then roll the image back exactly.
type TrackingDevice struct {
	*Device
	undo *UndoLog
}

// NewTrackingDevice builds a device from img whose mutations are undoable.
// Rollback restores both images to their state at construction.
func NewTrackingDevice(img []byte) *TrackingDevice {
	d := FromImage(img)
	u := NewUndoLog(nil)
	d.TrackUndo(u)
	return &TrackingDevice{Device: d, undo: u}
}

// Rollback restores the volatile and persistent images to their state at
// construction (or the last Rollback) and clears the transient device state,
// without copying anything beyond the mutated ranges.
func (t *TrackingDevice) Rollback() {
	t.undo.Rollback()
	t.Device.inflight = t.Device.inflight[:0]
	t.Device.writes.reset()
}

// UndoBytes reports how many bytes of undo state are currently held.
func (t *TrackingDevice) UndoBytes() int64 { return t.undo.Bytes() }
