package workload

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestFormatParseRoundTrip(t *testing.T) {
	w := Workload{Name: "repro-1", Ops: []Op{
		{Kind: OpCreat, Path: "/f0", FDSlot: 0},
		{Kind: OpOpen, Path: "/f0", FDSlot: 1},
		{Kind: OpPwrite, FDSlot: 0, Off: 13, Size: 100, Seed: 42},
		{Kind: OpWrite, Path: "/f0", FDSlot: -1, Size: 8, Seed: 7},
		{Kind: OpLink, Path: "/f0", Path2: "/d0/l1"},
		{Kind: OpRename, Path: "/f0", Path2: "/f1"},
		{Kind: OpTruncate, Path: "/f1", Size: 50, FDSlot: -1},
		{Kind: OpFalloc, Path: "/f1", FDSlot: -1, Off: 8, Size: 64},
		{Kind: OpUnlink, Path: "/d0/l1", FDSlot: -1},
		{Kind: OpMkdir, Path: "/d1", FDSlot: -1},
		{Kind: OpRmdir, Path: "/d1", FDSlot: -1},
		{Kind: OpRemove, Path: "/f1", FDSlot: -1},
		{Kind: OpFsync, FDSlot: 1},
		{Kind: OpFdatasync, Path: "/f1", FDSlot: -1},
		{Kind: OpClose, FDSlot: 1},
		{Kind: OpSync, FDSlot: -1},
	}}
	text := Format(w)
	got, err := Parse(text)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	if got.Name != w.Name {
		t.Fatalf("name = %q", got.Name)
	}
	if len(got.Ops) != len(w.Ops) {
		t.Fatalf("ops = %d, want %d", len(got.Ops), len(w.Ops))
	}
	for i := range w.Ops {
		a, b := w.Ops[i], got.Ops[i]
		// Normalize: fields Format does not emit for this kind are zeroed
		// in the round-trip; compare the emitted surface instead.
		if fa, fb := string(AppendOp(nil, a)), string(AppendOp(nil, b)); fa != fb {
			t.Errorf("op %d: %q != %q", i, fa, fb)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"explode /f0",
		"pwrite /f0 off=x",
		"pwrite /f0 size=x",
		"pwrite /f0 seed=x",
		"creat /a fd=x",
		"creat /a bogus",
		"link /a /b /c",
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q) succeeded", c)
		}
	}
}

func TestParseSkipsCommentsAndBlank(t *testing.T) {
	w, err := Parse("# a comment\n\n# name: t9\nsync\n")
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "t9" || len(w.Ops) != 1 || w.Ops[0].Kind != OpSync {
		t.Fatalf("w = %+v", w)
	}
}

// Property: Format→Parse→Format is a fixed point.
func TestPropertyFormatFixedPoint(t *testing.T) {
	kinds := []OpKind{OpCreat, OpMkdir, OpFalloc, OpWrite, OpPwrite, OpLink,
		OpUnlink, OpRemove, OpRename, OpTruncate, OpRmdir, OpOpen, OpClose,
		OpFsync, OpFdatasync, OpSync}
	f := func(kindIdx uint8, slot int8, off, size uint16, seed uint32) bool {
		op := Op{
			Kind:   kinds[int(kindIdx)%len(kinds)],
			Path:   "/p0",
			Path2:  "/p1",
			FDSlot: int(slot%3) - 1,
			Off:    int64(off),
			Size:   int64(size),
			Seed:   seed,
		}
		w := Workload{Ops: []Op{op}}
		once := Format(w)
		parsed, err := Parse(once)
		if err != nil {
			return false
		}
		return Format(parsed) == once
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatContainsName(t *testing.T) {
	if !strings.Contains(Format(Workload{Name: "x", Ops: []Op{{Kind: OpSync}}}), "# name: x") {
		t.Fatal("name header missing")
	}
}
