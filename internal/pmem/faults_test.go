package pmem

import "testing"

// TestFaultInjectorNilSafe: a nil *Injector (faults off) injects nothing,
// so call sites need no guards.
func TestFaultInjectorNilSafe(t *testing.T) {
	var in *Injector
	if got := in.TornPrefix(3, 100); got != 100 {
		t.Errorf("nil TornPrefix = %d, want 100", got)
	}
	if _, _, flipped := in.FlipSite(64); flipped {
		t.Error("nil FlipSite flipped")
	}
	if in.Poisoned(5) {
		t.Error("nil Poisoned = true")
	}
	if NewInjector(nil, 1) != nil {
		t.Error("NewInjector(nil) != nil")
	}
	if NewInjector(&FaultConfig{Seed: 1}, 1) != nil {
		t.Error("NewInjector(zero rates) != nil")
	}
}

// TestFaultTornPrefixDeterministic: tears are keyed by the trace sequence
// number alone — word-aligned, strictly inside the write, identical across
// salts and repeats.
func TestFaultTornPrefixDeterministic(t *testing.T) {
	cfg := &FaultConfig{Seed: 42, TearOneInN: 2}
	a := NewInjector(cfg, 1)
	b := NewInjector(cfg, 0xdeadbeef) // different per-state salt
	torn := 0
	for seq := uint64(0); seq < 500; seq++ {
		for _, n := range []int{13, 64, 96, 4096} {
			got := a.TornPrefix(seq, n)
			if got != b.TornPrefix(seq, n) {
				t.Fatalf("seq %d n %d: tear differs across salts (%d vs %d)",
					seq, n, got, b.TornPrefix(seq, n))
			}
			if got != a.TornPrefix(seq, n) {
				t.Fatalf("seq %d n %d: tear not repeatable", seq, n)
			}
			if got == n {
				continue // untorn
			}
			torn++
			if got < WordSize || got >= n || got%WordSize != 0 {
				t.Fatalf("seq %d n %d: torn prefix %d not a word-aligned cut inside the write",
					seq, n, got)
			}
		}
	}
	if torn == 0 {
		t.Fatal("TearOneInN=2 never tore across 500 sequences")
	}
	if got := a.TornPrefix(7, WordSize); got != WordSize {
		t.Errorf("single-word write torn to %d; writes <= WordSize are atomic", got)
	}
}

// TestFaultFlipBitDeterministic: bit flips are keyed by the per-state salt;
// the same state picks the same bit every time, and the bit lies inside the
// image.
func TestFaultFlipBitDeterministic(t *testing.T) {
	cfg := &FaultConfig{Seed: 7, FlipOneInN: 2}
	flips := 0
	for salt := uint64(0); salt < 200; salt++ {
		in := NewInjector(cfg, salt)
		off, bit, flipped := in.FlipSite(4096)
		off2, bit2, flipped2 := in.FlipSite(4096)
		if off != off2 || bit != bit2 || flipped != flipped2 {
			t.Fatalf("salt %d: flip not repeatable", salt)
		}
		if !flipped {
			continue
		}
		flips++
		if off < 0 || off >= 4096 || bit < 0 || bit >= 8 {
			t.Fatalf("salt %d: flips bit %d of byte %d, outside a 4096-byte image", salt, bit, off)
		}
	}
	if flips == 0 {
		t.Fatal("FlipOneInN=2 never flipped across 200 salts")
	}
}

// TestFaultPoisonedLineRaisesMediaError: loads touching a poisoned line
// panic with *MediaError; Peek (the instrumentation path) never faults.
func TestFaultPoisonedLineRaisesMediaError(t *testing.T) {
	dev := NewDevice(1024)
	dev.InjectFaults(NewInjector(&FaultConfig{Seed: 1, ReadErrOneInN: 1}, 3))

	expectMediaError := func(name string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s on a poisoned line did not panic", name)
			}
			me, ok := r.(*MediaError)
			if !ok {
				t.Fatalf("%s panicked with %v, want *MediaError", name, r)
			}
			if me.Off%CacheLineSize != 0 {
				t.Errorf("%s: MediaError.Off %d not line-aligned", name, me.Off)
			}
			if me.Error() == "" {
				t.Errorf("%s: empty error string", name)
			}
		}()
		fn()
	}
	expectMediaError("Load", func() { dev.Load(0, 8) })
	expectMediaError("LoadInto", func() { dev.LoadInto(128, make([]byte, 16)) })

	dev.Peek(0, make([]byte, 8)) // must not panic

	clean := NewDevice(1024)
	_ = clean.Load(0, 8) // no injector: must not panic
}
