package pmem

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestUndoLogBasic(t *testing.T) {
	img := []byte{1, 2, 3, 4, 5}
	u := NewUndoLog(img)
	u.Save(1, 2)
	img[1], img[2] = 9, 9
	if u.Len() != 1 {
		t.Fatalf("len = %d", u.Len())
	}
	u.Rollback()
	if !bytes.Equal(img, []byte{1, 2, 3, 4, 5}) {
		t.Fatalf("rollback failed: %v", img)
	}
	if u.Len() != 0 {
		t.Fatal("rollback did not clear log")
	}
}

func TestUndoLogReverseOrder(t *testing.T) {
	img := []byte{0}
	u := NewUndoLog(img)
	u.Save(0, 1) // saves 0
	img[0] = 1
	u.Save(0, 1) // saves 1
	img[0] = 2
	u.Rollback()
	if img[0] != 0 {
		t.Fatalf("overlapping undo must restore oldest value; got %d", img[0])
	}
}

func TestUndoLogSaveZeroLength(t *testing.T) {
	u := NewUndoLog([]byte{1})
	u.Save(0, 0)
	if u.Len() != 0 {
		t.Fatal("zero-length save recorded")
	}
}

func TestUndoLogSaveImageMultipleBuffers(t *testing.T) {
	a := []byte{1, 2, 3, 4}
	b := []byte{5, 6, 7, 8}
	u := NewUndoLog(nil)
	u.SaveImage(a, 0, 2)
	a[0], a[1] = 9, 9
	u.SaveImage(b, 2, 2)
	b[2], b[3] = 9, 9
	if u.Bytes() != 4 {
		t.Fatalf("undo bytes = %d, want 4", u.Bytes())
	}
	if n := u.Rollback(); n != 4 {
		t.Fatalf("rollback restored %d bytes, want 4", n)
	}
	if !bytes.Equal(a, []byte{1, 2, 3, 4}) || !bytes.Equal(b, []byte{5, 6, 7, 8}) {
		t.Fatalf("rollback failed: a=%v b=%v", a, b)
	}
}

func TestDeviceResetPreservesImagesAndUndo(t *testing.T) {
	vol := make([]byte, 128)
	per := make([]byte, 128)
	d := WrapImages(vol, per)
	u := NewUndoLog(nil)
	d.TrackUndo(u)
	d.InjectFaults(NewInjector(&FaultConfig{ReadErrOneInN: 1}, 1))

	d.Store(0, []byte{0xAA})
	d.Flush(0, 1)
	d.Fence()
	d.Reset()
	if d.InFlightCount() != 0 {
		t.Fatal("Reset left transient device state")
	}
	if d.Stats() != (Stats{}) {
		t.Fatal("Reset left cost-model counters")
	}
	if vol[0] != 0xAA || per[0] != 0xAA {
		t.Fatal("Reset touched the images")
	}
	// The injector must be detached (loads no longer fault) and the undo
	// attachment preserved (new mutations keep being captured).
	d.Load(0, 64)
	d.Store(1, []byte{0xBB})
	u.Rollback()
	if vol[1] != 0 {
		t.Fatal("undo attachment lost across Reset")
	}
}

func TestTrackingDeviceRollback(t *testing.T) {
	img := make([]byte, 256)
	img[0] = 0x11
	td := NewTrackingDevice(img)
	td.Store(0, []byte{0x22})
	td.NTStore(64, []byte{0x33})
	td.Flush(0, 1)
	td.Fence()
	if td.Load(0, 1)[0] != 0x22 {
		t.Fatal("store not visible")
	}
	// Two 1-byte volatile saves (Store, NTStore) plus the fence persists:
	// the NT write (1 byte) and the flushed cache line (64 bytes).
	if td.UndoBytes() != 67 {
		t.Fatalf("undo bytes = %d, want 67", td.UndoBytes())
	}
	td.Rollback()
	if got := td.Load(0, 1)[0]; got != 0x11 {
		t.Fatalf("rollback: byte 0 = %#x, want 0x11", got)
	}
	if got := td.Load(64, 1)[0]; got != 0 {
		t.Fatalf("rollback: byte 64 = %#x, want 0", got)
	}
	if td.InFlightCount() != 0 {
		t.Fatal("rollback left in-flight writes")
	}
	// Persistent image must match the rolled-back volatile image.
	if !bytes.Equal(td.CrashImage(), td.VolatileImage()) {
		t.Fatal("rollback left persistent != volatile")
	}
}

// Property: arbitrary mutation sequences through a TrackingDevice always
// roll back to the original image.
func TestPropertyTrackingDeviceAlwaysRestores(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		orig := make([]byte, 1024)
		rng.Read(orig)
		td := NewTrackingDevice(append([]byte(nil), orig...))
		for i := 0; i < 25; i++ {
			off := rng.Int63n(960)
			buf := make([]byte, rng.Intn(48)+1)
			rng.Read(buf)
			switch rng.Intn(3) {
			case 0:
				td.Store(off, buf)
			case 1:
				td.NTStore(off, buf)
			case 2:
				td.Store(off, buf)
				td.Flush(off, len(buf))
				td.Fence()
			}
		}
		td.Rollback()
		return bytes.Equal(td.VolatileImage(), orig) &&
			bytes.Equal(td.CrashImage(), orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAblation_UndoLogVsCopy compares the paper's undo-log approach to
// checker-state restoration against whole-image copying (§3.3: Chipmunk
// rolls back checker mutations with an undo log because its images are
// 128 MB; ours are small enough that copying competes).
func BenchmarkAblation_UndoLogVsCopy(b *testing.B) {
	const imgSize = 1 << 20
	img := make([]byte, imgSize)
	b.Run("undo-log", func(b *testing.B) {
		td := NewTrackingDevice(img)
		buf := []byte("mutation")
		for i := 0; i < b.N; i++ {
			for off := int64(0); off < 64*1024; off += 4096 {
				td.Store(off, buf)
			}
			td.Rollback()
		}
	})
	b.Run("full-copy", func(b *testing.B) {
		buf := []byte("mutation")
		for i := 0; i < b.N; i++ {
			cp := append([]byte(nil), img...)
			dev := FromImage(cp)
			for off := int64(0); off < 64*1024; off += 4096 {
				dev.Store(off, buf)
			}
		}
	})
}

// TestDeviceMarkRestore: restoring a mark undoes everything the device did
// since — both images, the in-flight set and the counters —
// and a mark can be restored again after the device ran on from it.
func TestDeviceMarkRestore(t *testing.T) {
	d := NewDevice(4096)
	d.TrackUndo(NewUndoLog(nil))
	d.Store(0, []byte("base"))
	d.Flush(0, 4)
	d.Fence()
	d.Store(64, []byte("dirty"))
	d.NTStore(128, []byte("in flight"))
	type snap struct {
		vol, pers []byte
		inflight  []InFlight
		stats     Stats
	}
	take := func() snap {
		return snap{d.VolatileImage(), d.CrashImage(), d.InFlightWrites(), d.Stats()}
	}
	m, want := d.Mark(), take()
	for round := 0; round < 2; round++ {
		d.Store(0, []byte("over"))
		d.Flush(0, 256)
		d.NTStore(1024, []byte("more"))
		d.Fence()
		d.Store(2048, []byte("x"))
		d.Restore(m)
		if got := take(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: restored %+v, want %+v", round, got, want)
		}
	}
	d.Fence()
	if !bytes.Equal(d.CrashImage()[128:137], []byte("in flight")) {
		t.Fatal("a restored in-flight write did not persist at the next fence")
	}
}
