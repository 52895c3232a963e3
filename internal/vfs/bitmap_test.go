package vfs

import (
	"errors"
	"testing"
)

func TestBitmap(t *testing.T) {
	b := NewBitmap(3, 70) // spans two words, with units below lo
	if b.Free() != 67 {
		t.Fatalf("Free = %d, want 67", b.Free())
	}
	if u, _ := b.Lowest(); u != 3 {
		t.Fatalf("Lowest = %d, want 3", u)
	}
	if u, _ := b.Highest(); u != 69 {
		t.Fatalf("Highest = %d, want 69", u)
	}
	if b.Claim(2) || b.Claim(70) || b.Claim(3) || !b.Claim(64) {
		t.Fatal("Claim must refuse units outside the pool and units in use, and take a free one")
	}
	if b.Release(4) || b.Release(2) || !b.Release(64) || b.Used(64) {
		t.Fatal("Release must refuse free and outside units, and free a used one")
	}

	// Next fits from one past its last unit and wraps once.
	if u, _ := b.Next(); u != 4 {
		t.Fatalf("Next = %d, want 4", u)
	}
	b.Release(3)
	if u, _ := b.Next(); u != 5 {
		t.Fatalf("Next = %d, want 5 (next fit, not lowest)", u)
	}
	// Used: 4, 5 and 69, across both words.
	for _, want := range [][2]uint64{{0, 4}, {5, 5}, {6, 69}, {69, 69}} {
		if u, ok := b.NextUsed(want[0]); !ok || u != want[1] {
			t.Fatalf("NextUsed(%d) = %d, %v; want %d", want[0], u, ok, want[1])
		}
	}
	if _, ok := b.NextUsed(70); ok {
		t.Fatal("NextUsed past the last used unit found one")
	}
	c := b.Clone()
	for b.Free() > 0 {
		b.Next()
	}
	if _, err := b.Next(); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("Next on a full pool: %v", err)
	}
	if _, err := b.Lowest(); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("Lowest on a full pool: %v", err)
	}
	if _, err := b.Highest(); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("Highest on a full pool: %v", err)
	}
	if c.Free() != 64 || c.Used(6) {
		t.Fatalf("the clone shares the original's words: Free = %d", c.Free())
	}
	if u, _ := c.Next(); u != 6 {
		t.Fatalf("the clone's Next = %d, want 6 (its hint is copied)", u)
	}
}

// TestBitmapReset: Reset empties a bitmap over a new range in place, a nil
// one included, and Reset(0, 0) leaves one no unit can be claimed from.
func TestBitmapReset(t *testing.T) {
	var nilMap *Bitmap
	b := nilMap.Reset(0, 200)
	for b.Free() > 0 {
		b.Next()
	}
	if b.Reset(0, 0) != b || b.Claim(0) || b.Free() != 0 {
		t.Fatal("Reset(0, 0) must keep the bitmap and leave nothing to claim")
	}
	if _, err := b.Next(); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("Next on an empty range: %v", err)
	}
	b.Reset(5, 70)
	if b.Free() != 65 || b.Used(64) {
		t.Fatalf("after Reset(5, 70): Free = %d, unit 64 used %v; want 65 free", b.Free(), b.Used(64))
	}
	if u, _ := b.Next(); u != 5 {
		t.Fatalf("Next after Reset = %d, want 5 (the hint restarts at lo)", u)
	}
}
