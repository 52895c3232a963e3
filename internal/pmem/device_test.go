package pmem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDeviceZeroed(t *testing.T) {
	d := NewDevice(1024)
	if d.Size() != 1024 {
		t.Fatalf("size = %d, want 1024", d.Size())
	}
	img := d.CrashImage()
	for i, b := range img {
		if b != 0 {
			t.Fatalf("byte %d = %d, want 0", i, b)
		}
	}
}

func TestNewDeviceInvalidSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero size")
		}
	}()
	NewDevice(0)
}

func TestStoreIsVolatileUntilFlushed(t *testing.T) {
	d := NewDevice(256)
	d.Store(10, []byte("hello"))
	if got := d.Load(10, 5); !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("volatile read = %q", got)
	}
	// Not flushed, not fenced: crash loses it.
	img := d.CrashImage()
	if !bytes.Equal(img[10:15], make([]byte, 5)) {
		t.Fatalf("unflushed store leaked into crash image: %q", img[10:15])
	}
	// Flushed but not fenced: still in flight, default crash image loses it.
	d.Flush(10, 5)
	img = d.CrashImage()
	if !bytes.Equal(img[10:15], make([]byte, 5)) {
		t.Fatalf("unfenced flush leaked into crash image: %q", img[10:15])
	}
	// Fence makes it durable.
	d.Fence()
	img = d.CrashImage()
	if !bytes.Equal(img[10:15], []byte("hello")) {
		t.Fatalf("fenced flush missing from crash image: %q", img[10:15])
	}
}

func TestNTStoreInFlightUntilFence(t *testing.T) {
	d := NewDevice(256)
	d.NTStore(64, []byte{1, 2, 3, 4})
	if d.InFlightCount() != 1 {
		t.Fatalf("in-flight = %d, want 1", d.InFlightCount())
	}
	if img := d.CrashImage(); img[64] != 0 {
		t.Fatal("unfenced NT store persisted")
	}
	n := d.Fence()
	if n != 1 {
		t.Fatalf("Fence returned %d, want 1", n)
	}
	if img := d.CrashImage(); img[64] != 1 || img[67] != 4 {
		t.Fatal("fenced NT store not persisted")
	}
}

func TestFlushCapturesLineAtFlushTime(t *testing.T) {
	d := NewDevice(256)
	d.Store(0, []byte{0xAA})
	d.Flush(0, 1)
	// Overwrite after the flush; the in-flight capture must keep 0xAA.
	d.Store(0, []byte{0xBB})
	d.Fence()
	if img := d.CrashImage(); img[0] != 0xAA {
		t.Fatalf("crash image byte = %#x, want 0xAA (flush-time capture)", img[0])
	}
	// Volatile view sees the later store.
	if v := d.Load(0, 1); v[0] != 0xBB {
		t.Fatalf("volatile byte = %#x, want 0xBB", v[0])
	}
}

func TestFlushLineGranularity(t *testing.T) {
	d := NewDevice(512)
	d.Store(60, []byte{1, 2, 3, 4, 5, 6, 7, 8}) // spans lines 0 and 1
	d.Flush(60, 8)
	w := d.InFlightWrites()
	if len(w) != 2 {
		t.Fatalf("in-flight writes = %d, want 2 (two lines)", len(w))
	}
	if w[0].Off != 0 || w[1].Off != 64 {
		t.Fatalf("line offsets = %d, %d; want 0, 64", w[0].Off, w[1].Off)
	}
	for _, iw := range w {
		if len(iw.Data) != CacheLineSize {
			t.Fatalf("capture length = %d, want %d", len(iw.Data), CacheLineSize)
		}
	}
}

func TestFlushZeroLengthNoop(t *testing.T) {
	d := NewDevice(128)
	d.Flush(0, 0)
	if d.InFlightCount() != 0 {
		t.Fatal("zero-length flush created in-flight writes")
	}
}

func TestCrashImageWithSubset(t *testing.T) {
	d := NewDevice(256)
	d.NTStore(0, []byte{1})
	d.NTStore(8, []byte{2})
	d.NTStore(16, []byte{3})

	img := d.CrashImageWithSubset([]int{1})
	if img[0] != 0 || img[8] != 2 || img[16] != 0 {
		t.Fatalf("subset {1}: got %v %v %v", img[0], img[8], img[16])
	}
	img = d.CrashImageWithSubset([]int{2, 0}) // order should not matter
	if img[0] != 1 || img[8] != 0 || img[16] != 3 {
		t.Fatalf("subset {0,2}: got %v %v %v", img[0], img[8], img[16])
	}
	// Base image untouched.
	if base := d.CrashImage(); base[0] != 0 {
		t.Fatal("CrashImageWithSubset mutated base persistent image")
	}
}

func TestCrashImageSubsetProgramOrder(t *testing.T) {
	d := NewDevice(64)
	d.NTStore(0, []byte{1})
	d.NTStore(0, []byte{2}) // same address, later write
	img := d.CrashImageWithSubset([]int{1, 0})
	if img[0] != 2 {
		t.Fatalf("overlapping writes must replay in program order; got %d", img[0])
	}
}

func TestCrashImageSubsetOutOfRangePanics(t *testing.T) {
	d := NewDevice(64)
	d.NTStore(0, []byte{1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range subset index")
		}
	}()
	d.CrashImageWithSubset([]int{5})
}

func TestFromImage(t *testing.T) {
	src := make([]byte, 128)
	src[7] = 0x7F
	d := FromImage(src)
	if d.Load(7, 1)[0] != 0x7F {
		t.Fatal("volatile image not initialized")
	}
	if d.CrashImage()[7] != 0x7F {
		t.Fatal("persistent image not initialized")
	}
	// Mutating the source must not affect the device.
	src[7] = 0
	if d.Load(7, 1)[0] != 0x7F {
		t.Fatal("FromImage aliases caller slice")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := NewDevice(64)
	cases := []func(){
		func() { d.Store(60, []byte{1, 2, 3, 4, 5}) },
		func() { d.Load(-1, 1) },
		func() { d.Flush(0, 65) },
		func() { d.NTStore(64, []byte{1}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestStats(t *testing.T) {
	d := NewDevice(1024)
	d.Store(0, make([]byte, 100))
	d.Flush(0, 100)
	d.NTStore(512, make([]byte, 64))
	d.Fence()
	s := d.Stats()
	if s.StoreBytes != 100 || s.NTBytes != 64 || s.Fences != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.LinesFlushed != 2 {
		t.Fatalf("lines flushed = %d, want 2", s.LinesFlushed)
	}
	if s.MaxInFlight != 3 { // 2 flushed lines + 1 NT store
		t.Fatalf("max in-flight = %d, want 3", s.MaxInFlight)
	}
	if s.SimNanos <= 0 {
		t.Fatal("simulated time did not advance")
	}
	d.ResetStats()
	if d.Stats().Fences != 0 {
		t.Fatal("ResetStats did not clear counters")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{StoreBytes: 1, Fences: 2, MaxInFlight: 3, SimNanos: 10}
	b := Stats{StoreBytes: 4, Fences: 1, MaxInFlight: 7, SimNanos: 5}
	a.Add(b)
	if a.StoreBytes != 5 || a.Fences != 3 || a.MaxInFlight != 7 || a.SimNanos != 15 {
		t.Fatalf("Add result = %+v", a)
	}
}

func TestWriteKindString(t *testing.T) {
	if KindFlush.String() != "flush" || KindNT.String() != "nt" {
		t.Fatal("WriteKind strings wrong")
	}
	if WriteKind(9).String() == "" {
		t.Fatal("unknown kind should still stringify")
	}
}

// Property: applying the full in-flight subset yields the same image as
// Fence() would produce.
func TestPropertyFullSubsetEqualsFence(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := NewDevice(4096)
		ops := int(nOps%20) + 1
		for i := 0; i < ops; i++ {
			off := rng.Int63n(4000)
			n := rng.Intn(64) + 1
			buf := make([]byte, n)
			rng.Read(buf)
			if rng.Intn(2) == 0 {
				d.NTStore(off, buf)
			} else {
				d.Store(off, buf)
				d.Flush(off, n)
			}
		}
		all := make([]int, d.InFlightCount())
		for i := range all {
			all[i] = i
		}
		subsetImg := d.CrashImageWithSubset(all)
		d.Fence()
		return bytes.Equal(subsetImg, d.CrashImage())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: after a fence, volatile and persistent images agree on every
// byte that was ever NT-stored or store+flushed (and crash image is a prefix
// of the volatile history for those ranges).
func TestPropertyFencedWritesDurable(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := NewDevice(2048)
		type rng2 struct{ off, n int64 }
		var covered []rng2
		for i := 0; i < 15; i++ {
			off := rng.Int63n(1900)
			n := int64(rng.Intn(48) + 1)
			buf := make([]byte, n)
			rng.Read(buf)
			d.NTStore(off, buf)
			covered = append(covered, rng2{off, n})
		}
		d.Fence()
		img := d.CrashImage()
		vol := d.VolatileImage()
		for _, c := range covered {
			if !bytes.Equal(img[c.off:c.off+c.n], vol[c.off:c.off+c.n]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a store that is never flushed never appears in any crash image,
// even with every in-flight write applied.
func TestPropertyUnflushedStoresNeverPersist(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := NewDevice(4096)
		// Unflushed store in line 50 (offset 3200..3263), which nothing
		// else touches.
		secret := byte(rng.Intn(255) + 1)
		d.Store(3200, []byte{secret})
		// Unrelated traffic elsewhere.
		for i := 0; i < 10; i++ {
			off := rng.Int63n(1024)
			buf := make([]byte, rng.Intn(32)+1)
			rng.Read(buf)
			d.NTStore(off, buf)
		}
		all := make([]int, d.InFlightCount())
		for i := range all {
			all[i] = i
		}
		img := d.CrashImageWithSubset(all)
		if img[3200] != 0 {
			return false
		}
		d.Fence()
		return d.CrashImage()[3200] == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadInto(t *testing.T) {
	d := NewDevice(64)
	d.Store(4, []byte{9, 8, 7})
	buf := make([]byte, 3)
	d.LoadInto(4, buf)
	if !bytes.Equal(buf, []byte{9, 8, 7}) {
		t.Fatalf("LoadInto = %v", buf)
	}
}

func TestWrapImagesCopyFree(t *testing.T) {
	volatile := make([]byte, 256)
	persistent := make([]byte, 256)
	for i := range volatile {
		volatile[i] = byte(i)
		persistent[i] = byte(i)
	}
	d := WrapImages(volatile, persistent)
	if d.Size() != 256 {
		t.Fatalf("size = %d", d.Size())
	}
	if got := d.Load(3, 4); !bytes.Equal(got, []byte{3, 4, 5, 6}) {
		t.Fatalf("load = %v", got)
	}
	// Stores land in the caller's buffers directly: that is the point.
	d.Store(0, []byte{0xAA})
	if volatile[0] != 0xAA {
		t.Fatal("store did not hit the wrapped volatile buffer")
	}
	if persistent[0] != 0 {
		t.Fatal("unflushed store reached the persistent buffer")
	}
}

func TestWrapImagesPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"size-mismatch": func() { WrapImages(make([]byte, 8), make([]byte, 16)) },
		"empty":         func() { WrapImages(nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
