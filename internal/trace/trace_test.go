package trace

import (
	"strings"
	"testing"
)

func TestLogAppendAndMarkers(t *testing.T) {
	l := NewLog()
	if l.CurrentSyscall() != -1 {
		t.Fatal("fresh log should be outside any syscall")
	}
	l.BeginSyscall(0, "creat(/a)")
	l.Append(KindNT, 100, []byte{1, 2}, "memcpy_nt")
	l.Append(KindFence, 0, nil, "sfence")
	l.EndSyscall(0, "creat(/a)")
	l.Append(KindFlush, 64, make([]byte, 64), "flush_buffer")

	if l.Len() != 5 {
		t.Fatalf("len = %d, want 5", l.Len())
	}
	if e := l.At(1); e.Sys != 0 || e.Kind != KindNT || e.Seq != 1 {
		t.Fatalf("entry 1 = %+v", e)
	}
	if e := l.At(4); e.Sys != -1 {
		t.Fatalf("post-syscall entry stamped with sys %d, want -1", e.Sys)
	}
	if got := l.SyscallName(0); got != "creat(/a)" {
		t.Fatalf("syscall name = %q", got)
	}
	if got := l.SyscallName(7); got != "" {
		t.Fatalf("missing syscall name = %q, want empty", got)
	}
	if l.SyscallCount() != 1 {
		t.Fatalf("syscall count = %d", l.SyscallCount())
	}
}

func TestWrites(t *testing.T) {
	l := NewLog()
	l.Append(KindNT, 0, []byte{1}, "")
	l.Append(KindFence, 0, nil, "")
	l.Append(KindFlush, 0, []byte{2}, "")
	l.Append(KindStore, 0, []byte{3}, "")
	w := l.Writes(0, l.Len())
	if len(w) != 2 || w[0] != 0 || w[1] != 2 {
		t.Fatalf("writes = %v, want [0 2]", w)
	}
	if w := l.Writes(1, 2); len(w) != 0 {
		t.Fatalf("writes(1,2) = %v, want empty", w)
	}
}

func TestIsWrite(t *testing.T) {
	cases := map[Kind]bool{
		KindNT: true, KindFlush: true,
		KindFence: false, KindSyscallBegin: false, KindSyscallEnd: false, KindStore: false,
	}
	for k, want := range cases {
		if got := (Entry{Kind: k}).IsWrite(); got != want {
			t.Errorf("IsWrite(%v) = %v, want %v", k, got, want)
		}
	}
}

func TestApplyAndReplayAll(t *testing.T) {
	l := NewLog()
	l.Append(KindNT, 2, []byte{0xAA, 0xBB}, "")
	l.Append(KindStore, 0, []byte{0xFF}, "") // must be ignored
	l.Append(KindFlush, 0, []byte{0x11, 0x22}, "")
	img := make([]byte, 8)
	ReplayAll(img, l)
	want := []byte{0x11, 0x22, 0xAA, 0xBB, 0, 0, 0, 0}
	for i := range want {
		if img[i] != want[i] {
			t.Fatalf("img = %v, want %v", img, want)
		}
	}
}

func TestReplayOrderLastWriteWins(t *testing.T) {
	l := NewLog()
	l.Append(KindNT, 0, []byte{1}, "")
	l.Append(KindNT, 0, []byte{2}, "")
	img := make([]byte, 1)
	ReplayAll(img, l)
	if img[0] != 2 {
		t.Fatalf("img[0] = %d, want 2 (program order)", img[0])
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNT: "nt", KindFlush: "flush", KindFence: "fence",
		KindSyscallBegin: "syscall-begin", KindSyscallEnd: "syscall-end", KindStore: "store",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind formatting")
	}
}

func TestDumpContainsEntries(t *testing.T) {
	l := NewLog()
	l.BeginSyscall(3, "rename(a,b)")
	l.Append(KindNT, 42, []byte{1}, "memcpy_nt")
	d := l.Dump()
	if !strings.Contains(d, "rename(a,b)") || !strings.Contains(d, "off=42") {
		t.Fatalf("dump missing detail:\n%s", d)
	}
}

func TestEntryStringVariants(t *testing.T) {
	e := Entry{Seq: 1, Kind: KindFence, Sys: 2}
	if !strings.Contains(e.String(), "fence") {
		t.Fatal("fence entry string")
	}
	e = Entry{Seq: 0, Kind: KindSyscallBegin, Sys: 0, Name: "mkdir(/d)"}
	if !strings.Contains(e.String(), "mkdir(/d)") {
		t.Fatal("marker entry string")
	}
}

// TestTruncate: a log cut back to an earlier length records on as if the
// dropped entries had never been appended.
func TestTruncate(t *testing.T) {
	l := NewLog()
	l.BeginSyscall(0, "a")
	l.Append(KindNT, 0, []byte("keep"), "memcpy_nt")
	l.EndSyscall(0, "a")
	n, data := l.Len(), l.DataLen()
	l.BeginSyscall(1, "b")
	l.Append(KindNT, 8, []byte("dropped"), "memcpy_nt")
	l.Truncate(n, data)
	l.BeginSyscall(1, "c")
	l.Append(KindNT, 16, []byte("new"), "memcpy_nt")
	l.EndSyscall(1, "c")

	want := NewLog()
	want.BeginSyscall(0, "a")
	want.Append(KindNT, 0, []byte("keep"), "memcpy_nt")
	want.EndSyscall(0, "a")
	want.BeginSyscall(1, "c")
	want.Append(KindNT, 16, []byte("new"), "memcpy_nt")
	want.EndSyscall(1, "c")
	if got, w := l.Dump(), want.Dump(); got != w || string(l.At(1).Data) != "keep" || string(l.At(4).Data) != "new" {
		t.Fatalf("truncated log:\n%s\nwant:\n%s", got, w)
	}
}
