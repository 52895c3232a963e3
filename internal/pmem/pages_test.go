package pmem

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// pagesOf lists the set's pages in ascending order.
func pagesOf(s *PageSet) []int64 {
	var out []int64
	for p := int64(0); p < int64(len(s.bits))*64; p++ {
		if s.bits[p/64]&(1<<(p%64)) != 0 {
			out = append(out, p)
		}
	}
	return out
}

// trackedDevice returns a device over zeroed images with a page set attached.
func trackedDevice(size int64) (*Device, *PageSet) {
	d := NewDevice(size)
	s := NewPageSet(size)
	d.TrackPages(s)
	return d, s
}

// TestPageSetWritersMarkExactlyTheirPages: each image writer marks the pages
// it writes and nothing else. The set is attached after any set-up, so what
// it holds is the writer's alone.
func TestPageSetWritersMarkExactlyTheirPages(t *testing.T) {
	const size = 16 * PageSize
	cases := []struct {
		name  string
		setup func(d *Device)
		write func(d *Device)
		want  []int64
	}{
		{"store straddling a page boundary", nil,
			func(d *Device) { d.Store(PageSize-1, []byte{1, 2}) }, []int64{0, 1}},
		{"store of a whole page", nil,
			func(d *Device) { d.Store(3*PageSize, make([]byte, PageSize)) }, []int64{3}},
		{"empty store", nil,
			func(d *Device) { d.Store(5*PageSize, nil) }, nil},
		{"nt store over three pages", nil,
			func(d *Device) { d.NTStore(4*PageSize+100, make([]byte, 2*PageSize)) }, []int64{4, 5, 6}},
		{"fence of a flushed store",
			func(d *Device) { d.Store(7*PageSize+8, []byte{9}); d.Flush(7*PageSize+8, 1) },
			func(d *Device) { d.Fence() }, []int64{7}},
		{"fence of nt stores",
			func(d *Device) { d.NTStore(2*PageSize, []byte{1}); d.NTStore(9*PageSize-1, []byte{1, 2}) },
			func(d *Device) { d.Fence() }, []int64{2, 8, 9}},
		{"patch", nil,
			func(d *Device) { d.Patch(11*PageSize+4000, make([]byte, 200)) }, []int64{11, 12}},
		{"flush marks nothing",
			func(d *Device) { d.Store(6*PageSize, []byte{1}) },
			func(d *Device) { d.Flush(6*PageSize, 1) }, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := NewDevice(size)
			if c.setup != nil {
				c.setup(d)
			}
			s := NewPageSet(size)
			d.TrackPages(s)
			c.write(d)
			if got := pagesOf(s); !slices.Equal(got, c.want) {
				t.Fatalf("marked pages %v, want %v", got, c.want)
			}
		})
	}
}

// TestPageSetPartialLastPage: a device whose size is not a multiple of
// PageSize has a short last page, and marking, clearing, copying and the
// invariant check all stop at the device's end.
func TestPageSetPartialLastPage(t *testing.T) {
	const size = 2*PageSize + 1808
	d, s := trackedDevice(size)
	d.Store(size-1, []byte{0xAA})
	d.NTStore(size-8, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	d.Fence()
	if got := pagesOf(s); !slices.Equal(got, []int64{2}) {
		t.Fatalf("marked pages %v, want [2]", got)
	}
	if !s.Covers(d.volatile) || !s.Covers(d.persistent) {
		t.Fatal("images non-zero outside the marked pages")
	}

	dst := make([]byte, size)
	dstPages := NewPageSet(size)
	if n := dstPages.Copy(dst, d.persistent, s); n != size-2*PageSize {
		t.Fatalf("copied %d bytes, want the %d-byte last page", n, size-2*PageSize)
	}
	if !bytes.Equal(dst, d.persistent) {
		t.Fatal("copy over the partial page differs from its source")
	}
	if !slices.Equal(pagesOf(dstPages), []int64{2}) {
		t.Fatalf("copy left destination pages %v, want [2]", pagesOf(dstPages))
	}

	s.Clear(d.volatile, d.persistent)
	if len(pagesOf(s)) != 0 {
		t.Fatalf("Clear left pages %v set", pagesOf(s))
	}
	if !bytes.Equal(d.volatile, make([]byte, size)) || !bytes.Equal(d.persistent, make([]byte, size)) {
		t.Fatal("Clear left non-zero bytes on the partial page")
	}
}

// TestPageSetFlushNeverStoredThenFence: flushing a line no store touched
// captures its zero bytes as an in-flight write; the fence that persists
// them marks the page, and both images stay zero outside the set.
func TestPageSetFlushNeverStoredThenFence(t *testing.T) {
	d, s := trackedDevice(8 * PageSize)
	d.Flush(5*PageSize+128, 64)
	if len(pagesOf(s)) != 0 {
		t.Fatalf("flush marked %v", pagesOf(s))
	}
	d.Fence()
	if got := pagesOf(s); !slices.Equal(got, []int64{5}) {
		t.Fatalf("fence marked %v, want [5]", got)
	}
	if !s.Covers(d.volatile) || !s.Covers(d.persistent) {
		t.Fatal("images non-zero outside the marked pages")
	}
}

// TestPageSetSurvivesReset: Reset keeps the attachment, so a recycled
// device goes on marking, while its in-flight set and capture arenas start
// over.
func TestPageSetSurvivesReset(t *testing.T) {
	d, s := trackedDevice(8 * PageSize)
	d.Store(0, []byte{1})
	d.NTStore(PageSize, make([]byte, 100))
	d.Load(0, 64)
	d.Reset()
	if d.InFlightCount() != 0 {
		t.Fatalf("Reset kept %d in-flight writes", d.InFlightCount())
	}
	if d.reads.used != 0 || d.writes.used != 0 {
		t.Fatalf("Reset kept arena use: reads %d, writes %d", d.reads.used, d.writes.used)
	}
	if got := pagesOf(s); !slices.Equal(got, []int64{0, 1}) {
		t.Fatalf("Reset changed the set to %v", got)
	}
	d.Store(3*PageSize, []byte{1})
	if got := pagesOf(s); !slices.Equal(got, []int64{0, 1, 3}) {
		t.Fatalf("store after Reset: pages %v, want [0 1 3]", got)
	}
}

// TestPageSetCopyAndClear: Copy makes a tracked buffer equal its source,
// copying only the union of both sets, and takes the source's set; Clear
// zeroes every tracked buffer's pages and empties the set.
func TestPageSetCopyAndClear(t *testing.T) {
	const size = 64 * PageSize
	src, dst := make([]byte, size), make([]byte, size)
	srcPages, dstPages := NewPageSet(size), NewPageSet(size)
	for _, p := range []int64{0, 1, 2, 40, 63} { // stale destination pages
		dst[p*PageSize+7] = 0xEE
		dstPages.Mark(p*PageSize, 1)
	}
	for _, p := range []int64{2, 3, 63} {
		src[p*PageSize+9] = 0x11
		srcPages.Mark(p*PageSize, 1)
	}
	if n := dstPages.Copy(dst, src, srcPages); n != 6*PageSize {
		t.Fatalf("copied %d bytes, want the 6-page union %d", n, 6*PageSize)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("destination differs from source after Copy")
	}
	if !slices.Equal(pagesOf(dstPages), pagesOf(srcPages)) {
		t.Fatalf("destination pages %v, want the source's %v", pagesOf(dstPages), pagesOf(srcPages))
	}

	dst[50*PageSize] = 1
	if dstPages.Covers(dst) {
		t.Fatal("Covers missed a non-zero byte outside the set")
	}
	dst[50*PageSize] = 0
	other := append([]byte(nil), dst...)
	dstPages.Clear(dst, other)
	if len(pagesOf(dstPages)) != 0 || !bytes.Equal(dst, make([]byte, size)) || !bytes.Equal(other, make([]byte, size)) {
		t.Fatal("Clear left bytes or pages behind")
	}
}

// TestPageSetRandomOpsKeepInvariant: any sequence of device operations on
// zeroed images leaves both images zero outside the pages marked.
func TestPageSetRandomOpsKeepInvariant(t *testing.T) {
	const size = 32*PageSize + 100
	rng := rand.New(rand.NewSource(7))
	d, s := trackedDevice(size)
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(3*PageSize)
		off := rng.Int63n(size - int64(n) + 1)
		data := make([]byte, n)
		rng.Read(data)
		switch rng.Intn(5) {
		case 0:
			d.Store(off, data)
		case 1:
			d.NTStore(off, data)
		case 2:
			d.Flush(off, n)
		case 3:
			d.Fence()
		case 4:
			d.Patch(off, data)
		}
		if !s.Covers(d.volatile) || !s.Covers(d.persistent) {
			t.Fatalf("op %d: images non-zero outside the marked pages", i)
		}
	}
}
