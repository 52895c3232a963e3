package persist

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"chipmunk/internal/pmem"
	"chipmunk/internal/trace"
)

func newRecorded(size int64) (*PM, *trace.Log, *pmem.Device) {
	dev := pmem.NewDevice(size)
	pm := New(dev)
	log := trace.NewLog()
	pm.Attach(NewRecorder(log))
	return pm, log, dev
}

func TestMemcpyNTRecorded(t *testing.T) {
	pm, log, dev := newRecorded(256)
	pm.MemcpyNT(16, []byte("abcd"))
	if log.Len() != 1 {
		t.Fatalf("log len = %d", log.Len())
	}
	e := log.At(0)
	if e.Kind != trace.KindNT || e.Off != 16 || !bytes.Equal(e.Data, []byte("abcd")) {
		t.Fatalf("entry = %+v", e)
	}
	if dev.InFlightCount() != 1 {
		t.Fatal("NT store not in flight")
	}
	pm.Fence()
	if img := dev.CrashImage(); !bytes.Equal(img[16:20], []byte("abcd")) {
		t.Fatal("NT store not durable after fence")
	}
}

func TestMemsetNT(t *testing.T) {
	pm, log, _ := newRecorded(256)
	pm.MemsetNT(0, 0x5A, 10)
	pm.Fence()
	e := log.At(0)
	if len(e.Data) != 10 || e.Data[9] != 0x5A {
		t.Fatalf("memset entry = %+v", e)
	}
	if got := pm.Load(0, 10); got[0] != 0x5A || got[9] != 0x5A {
		t.Fatalf("memset contents = %v", got)
	}
}

func TestFlushCaptureAndAlignment(t *testing.T) {
	pm, log, _ := newRecorded(512)
	pm.Store(100, []byte{7, 8, 9})
	pm.Flush(100, 3)
	if log.Len() != 1 {
		t.Fatalf("log len = %d", log.Len())
	}
	e := log.At(0)
	if e.Kind != trace.KindFlush {
		t.Fatalf("kind = %v", e.Kind)
	}
	if e.Off != 64 { // aligned down to line start
		t.Fatalf("flush off = %d, want 64", e.Off)
	}
	if len(e.Data) != pmem.CacheLineSize {
		t.Fatalf("capture len = %d, want one line", len(e.Data))
	}
	if e.Data[100-64] != 7 || e.Data[102-64] != 9 {
		t.Fatal("capture does not contain stored bytes")
	}
}

func TestFlushCaptureClampsAtDeviceEnd(t *testing.T) {
	pm, log, _ := newRecorded(100) // not line-aligned size
	pm.Store(96, []byte{1})
	pm.Flush(96, 1)
	e := log.At(0)
	if e.Off != 64 || len(e.Data) != 36 {
		t.Fatalf("clamped capture: off=%d len=%d", e.Off, len(e.Data))
	}
}

func TestFlushNonPositiveNoop(t *testing.T) {
	pm, log, _ := newRecorded(128)
	pm.Flush(0, 0)
	pm.Flush(0, -5)
	if log.Len() != 0 {
		t.Fatal("no-op flush recorded")
	}
}

func TestStoreNotTracedByDefault(t *testing.T) {
	pm, log, _ := newRecorded(128)
	pm.Store(0, []byte{1})
	if log.Len() != 0 {
		t.Fatal("plain store traced in function-level mode")
	}
	pm.TraceStores = true
	pm.Store(0, []byte{2})
	if log.Len() != 1 || log.At(0).Kind != trace.KindStore {
		t.Fatal("per-store tracing mode did not record store")
	}
}

func TestStore64Load64Roundtrip(t *testing.T) {
	pm, _, _ := newRecorded(128)
	pm.Store64(8, 0xDEADBEEFCAFE)
	if got := pm.Load64(8); got != 0xDEADBEEFCAFE {
		t.Fatalf("load64 = %#x", got)
	}
	pm.Store32(32, 0xABCD1234)
	if got := pm.Load32(32); got != 0xABCD1234 {
		t.Fatalf("load32 = %#x", got)
	}
}

func TestPersistStore64Durable(t *testing.T) {
	pm, _, dev := newRecorded(128)
	pm.PersistStore64(0, 42)
	pm.Fence()
	img := dev.CrashImage()
	if img[0] != 42 {
		t.Fatal("PersistStore64 not durable after fence")
	}
}

func TestDetach(t *testing.T) {
	pm, log, _ := newRecorded(128)
	rec2log := trace.NewLog()
	rec2 := NewRecorder(rec2log)
	pm.Attach(rec2)
	pm.MemcpyNT(0, []byte{1})
	pm.Detach(rec2)
	pm.MemcpyNT(8, []byte{2})
	if rec2log.Len() != 1 {
		t.Fatalf("detached probe log len = %d, want 1", rec2log.Len())
	}
	if log.Len() != 2 {
		t.Fatalf("remaining probe log len = %d, want 2", log.Len())
	}
}

func TestCountingProbe(t *testing.T) {
	dev := pmem.NewDevice(256)
	pm := New(dev)
	c := &CountingProbe{}
	pm.Attach(c)
	pm.TraceStores = true
	pm.MemcpyNT(0, []byte{1})
	pm.Store(8, []byte{2})
	pm.Flush(8, 1)
	pm.Fence()
	if c.NT != 1 || c.Stores != 1 || c.Flushes != 1 || c.Fences != 1 {
		t.Fatalf("counts = %+v", *c)
	}
}

func TestWrapTracking(t *testing.T) {
	td := pmem.NewTrackingDevice(make([]byte, 256))
	pm := New(WrapTracking(td))
	pm.MemcpyNT(0, []byte{9})
	pm.Fence()
	if pm.Load(0, 1)[0] != 9 {
		t.Fatal("tracking device write lost")
	}
	td.Rollback()
	if pm.Load(0, 1)[0] != 0 {
		t.Fatal("rollback through adapter failed")
	}
}

// Property: trace fidelity. For random persistence-op sequences, replaying
// the recorded trace onto a copy of the initial image produces exactly the
// device's persistent image (after a final fence). This is the foundation
// of Chipmunk's record-and-replay: the function-level log loses nothing the
// crash-state constructor needs.
func TestPropertyTraceReplayMatchesDevice(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pm, log, dev := newRecorded(4096)
		for i := 0; i < 40; i++ {
			off := rng.Int63n(3900)
			n := rng.Intn(100) + 1
			buf := make([]byte, n)
			rng.Read(buf)
			switch rng.Intn(4) {
			case 0:
				pm.MemcpyNT(off, buf)
			case 1:
				pm.MemsetNT(off, byte(rng.Intn(256)), n)
			case 2:
				pm.Store(off, buf)
				pm.Flush(off, n)
			case 3:
				pm.Fence()
			}
		}
		pm.Fence()
		img := make([]byte, 4096)
		trace.ReplayAll(img, log)
		return bytes.Equal(img, dev.CrashImage())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: unflushed cached stores never reach the replayed image either —
// the trace contains them only via flush captures.
func TestPropertyTraceOmitsUnflushedStores(t *testing.T) {
	pm, log, _ := newRecorded(1024)
	pm.Store(512, []byte{0xEE})
	pm.MemcpyNT(0, []byte{1})
	pm.Fence()
	img := make([]byte, 1024)
	trace.ReplayAll(img, log)
	if img[512] != 0 {
		t.Fatal("unflushed store appeared in trace replay")
	}
}

// TestPMWritesZeroAlloc pins that PM keeps no caller's buffer: every write
// function, handed a buffer on the caller's stack, allocates nothing, with
// no probe, with a Recorder, and with a Recorder tracing every store. A
// probe that saw the caller's slice would move that buffer to the heap on
// every call.
func TestPMWritesZeroAlloc(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	for _, c := range []struct {
		name        string
		record      bool
		traceStores bool
	}{
		{"no-probe", false, false},
		{"recorder", true, false},
		{"recorder-trace-stores", true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			pm := New(pmem.NewDevice(4096))
			log := trace.NewLog()
			if c.record {
				pm.Attach(NewRecorder(log))
			}
			pm.TraceStores = c.traceStores
			for _, w := range []struct {
				name  string
				write func(byte)
			}{
				{"Store", func(v byte) {
					var b [64]byte
					b[0] = v
					pm.Store(0, b[:])
				}},
				{"Store64", func(v byte) { pm.Store64(64, uint64(v)) }},
				{"Store32", func(v byte) { pm.Store32(128, uint32(v)) }},
				{"PersistStore", func(v byte) {
					var b [64]byte
					b[0] = v
					pm.PersistStore(192, b[:])
				}},
				{"PersistStore64", func(v byte) { pm.PersistStore64(256, uint64(v)) }},
				{"MemcpyNT", func(v byte) {
					var b [256]byte
					b[0] = v
					pm.MemcpyNT(512, b[:])
				}},
			} {
				v := byte(0)
				allocs := testing.AllocsPerRun(100, func() {
					v++
					w.write(v)
					pm.Fence()
					log.Reset()
				})
				if allocs != 0 {
					t.Errorf("%s allocates %.1f times per call, want 0", w.name, allocs)
				}
			}
		})
	}
}

// TestProbeSeesEachCallsBytes pins the other half of the contract: probes
// get PM's scratch copy, which the next call overwrites, so what a probe
// keeps it must copy. After two non-temporal copies and two traced stores
// from one caller buffer, rewritten between the calls, the log still holds
// each call's own bytes.
func TestProbeSeesEachCallsBytes(t *testing.T) {
	pm, log, _ := newRecorded(256)
	pm.TraceStores = true
	buf := []byte("AAAA")
	pm.MemcpyNT(0, buf)
	copy(buf, "BBBB")
	pm.MemcpyNT(8, buf)
	copy(buf, "CCCC")
	pm.Store(16, buf)
	copy(buf, "DDDD")
	pm.Store(24, buf)
	copy(buf, "XXXX")
	want := []struct {
		kind trace.Kind
		off  int64
		data string
	}{
		{trace.KindNT, 0, "AAAA"},
		{trace.KindNT, 8, "BBBB"},
		{trace.KindStore, 16, "CCCC"},
		{trace.KindStore, 24, "DDDD"},
	}
	if log.Len() != len(want) {
		t.Fatalf("log len = %d, want %d", log.Len(), len(want))
	}
	for i, w := range want {
		if e := log.At(i); e.Kind != w.kind || e.Off != w.off || string(e.Data) != w.data {
			t.Errorf("entry %d = {%v %d %q}, want {%v %d %q}", i, e.Kind, e.Off, e.Data, w.kind, w.off, w.data)
		}
	}
}
