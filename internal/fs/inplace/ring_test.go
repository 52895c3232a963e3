package inplace

import (
	"bytes"
	"testing"

	"chipmunk/internal/persist"
	"chipmunk/internal/pmem"
)

// TestRingWrapsRecords appends records until they wrap the area, then reads
// each back through its header: a record that straddles the end of the
// area is split byte-wise and read back whole.
func TestRingWrapsRecords(t *testing.T) {
	pm := persist.New(pmem.NewDevice(2 * 4096))
	r := Ring{PM: pm, Base: 4096, Size: 256}
	r.Format()
	r.Tail += 200 // 40 bytes short of the area's end
	var redo Redo
	for i := 0; i < 5; i++ {
		redo.Set(int64(100*i), bytes.Repeat([]byte{byte(i + 1)}, 5+3*i))
	}
	pos, wrapped := r.Tail, false
	for _, rec := range redo.Recs {
		next := r.Append(pos, rec)
		wrapped = wrapped || r.Dev(pos) > r.Dev(next-1)
		pos = next
	}
	if pos-r.Tail != redo.Size() || !wrapped {
		t.Fatalf("appended %d bytes (want %d), wrapped=%v", pos-r.Tail, redo.Size(), wrapped)
	}
	pos = r.Tail
	for i, want := range redo.Recs {
		target, n := r.Header(pos)
		if target != want.Off || n != len(want.Data) {
			t.Fatalf("record %d header: target %d len %d, want %d %d", i, target, n, want.Off, len(want.Data))
		}
		got := make([]byte, n)
		if r.LoadInto(pos+RecHdrSize, got); !bytes.Equal(got, want.Data) {
			t.Fatalf("record %d data %x, want %x", i, got, want.Data)
		}
		pos += RecSize(n)
	}
	for _, off := range []int64{4096 - 1, 4096 + 256} {
		if b := pm.Load(off, 1); b[0] != 0 {
			t.Fatalf("the ring wrote outside its area at %d", off)
		}
	}
}
