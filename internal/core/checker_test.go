package core

import (
	"strings"
	"testing"

	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

func fileState(path string, data string, nlink uint32) vfs.FileState {
	return vfs.FileState{
		Path: path, Type: vfs.TypeRegular, Nlink: nlink,
		Size: int64(len(data)), Data: []byte(data),
	}
}

func dirState(path string, entries ...string) vfs.FileState {
	return vfs.FileState{Path: path, Type: vfs.TypeDir, Nlink: 2, Entries: entries}
}

func newAtomChecker(op workload.Op, pre, post vfs.State, atomicWrite bool) *oracleChecker {
	w := workload.Workload{Ops: []workload.Op{op}}
	return NewOracleChecker(RunEnv{
		Caps:         vfs.Caps{Name: "test", Strong: true, AtomicWrite: atomicWrite},
		Workload:     w,
		OracleStates: []vfs.State{pre, post},
		OpResults:    []workload.Result{{Op: op}},
	}).(*oracleChecker)
}

func TestCheckAtomicAcceptsPreAndPost(t *testing.T) {
	pre := vfs.State{"/": dirState("/", "a"), "/a": fileState("/a", "old", 1)}
	post := vfs.State{"/": dirState("/", "a"), "/a": fileState("/a", "new", 1)}
	op := workload.Op{Kind: workload.OpPwrite, Path: "/a", FDSlot: -1, Size: 3}
	ck := newAtomChecker(op, pre, post, true)
	ctx := &CheckContext{Phase: PhaseMid, Sys: 0}
	if d := ck.checkAtomic(pre.Clone(), ctx); d != "" {
		t.Fatalf("pre state rejected: %s", d)
	}
	if d := ck.checkAtomic(post.Clone(), ctx); d != "" {
		t.Fatalf("post state rejected: %s", d)
	}
}

func TestCheckAtomicRejectsMixedVersions(t *testing.T) {
	// rename: old gone in post, new appears. A state with BOTH is mixed.
	pre := vfs.State{"/": dirState("/", "old"), "/old": fileState("/old", "x", 1)}
	post := vfs.State{"/": dirState("/", "new"), "/new": fileState("/new", "x", 1)}
	op := workload.Op{Kind: workload.OpRename, Path: "/old", Path2: "/new"}
	ck := newAtomChecker(op, pre, post, true)
	ctx := &CheckContext{Phase: PhaseMid, Sys: 0}

	both := vfs.State{
		"/":    dirState("/", "new", "old"),
		"/old": fileState("/old", "x", 1),
		"/new": fileState("/new", "x", 1),
	}
	if d := ck.checkAtomic(both, ctx); d == "" {
		t.Fatal("state with both names accepted")
	}
	neither := vfs.State{"/": dirState("/")}
	if d := ck.checkAtomic(neither, ctx); d == "" {
		t.Fatal("state with neither name accepted")
	}
}

func TestCheckAtomicUntouchedFileMustNotChange(t *testing.T) {
	pre := vfs.State{
		"/":  dirState("/", "a", "b"),
		"/a": fileState("/a", "old", 1),
		"/b": fileState("/b", "bystander", 1),
	}
	post := pre.Clone()
	post["/a"] = fileState("/a", "new", 1)
	op := workload.Op{Kind: workload.OpPwrite, Path: "/a", FDSlot: -1, Size: 3}
	ck := newAtomChecker(op, pre, post, true)
	ctx := &CheckContext{Phase: PhaseMid, Sys: 0}

	crash := post.Clone()
	crash["/b"] = fileState("/b", "CORRUPTED", 1)
	d := ck.checkAtomic(crash, ctx)
	if d == "" || !strings.Contains(d, "/b") {
		t.Fatalf("bystander corruption not flagged: %q", d)
	}
}

func TestByteMixOK(t *testing.T) {
	pre := fileState("/a", "AAAA", 1)
	post := fileState("/a", "BBBB", 1)
	cases := []struct {
		crash vfs.FileState
		want  bool
	}{
		{fileState("/a", "ABAB", 1), true},  // byte mix
		{fileState("/a", "AAAA", 1), true},  // all old
		{fileState("/a", "BBBB", 1), true},  // all new
		{fileState("/a", "ABCB", 1), false}, // foreign byte
		{fileState("/a", "AB", 1), false},   // size matches neither
		{fileState("/a", "ABAB", 2), false}, // nlink changed
	}
	for i, c := range cases {
		if got := byteMixOK(pre, post, c.crash, true, true); got != c.want {
			t.Errorf("case %d: byteMixOK = %v, want %v", i, got, c.want)
		}
	}
	// Extension: post larger than pre; bytes beyond pre's size compare
	// against zero.
	pre2 := fileState("/a", "AA", 1)
	post2 := fileState("/a", "BBBB", 1)
	mixed := vfs.FileState{Path: "/a", Type: vfs.TypeRegular, Nlink: 1, Size: 4, Data: []byte{'B', 'A', 0, 'B'}}
	if !byteMixOK(pre2, post2, mixed, true, true) {
		t.Error("extension mix with zero hole rejected")
	}
	// Created file (no pre): torn create is a mix of zeros and new data.
	created := vfs.FileState{Path: "/a", Type: vfs.TypeRegular, Nlink: 1, Size: 4, Data: []byte{'B', 0, 0, 'B'}}
	if !byteMixOK(vfs.FileState{}, post2, created, false, true) {
		t.Error("torn create rejected")
	}
}

func TestMixAllowedOnlyForWritesOnNonAtomicFS(t *testing.T) {
	pre := vfs.State{}
	post := vfs.State{}
	wOp := workload.Op{Kind: workload.OpPwrite, Path: "/a", FDSlot: -1}
	rOp := workload.Op{Kind: workload.OpRename, Path: "/a", Path2: "/b"}

	ckAtomic := newAtomChecker(wOp, pre, post, true)
	if ckAtomic.mixAllowed(&CheckContext{Sys: 0}, "/a") {
		t.Error("mix allowed on atomic-write FS")
	}
	ckTorn := newAtomChecker(wOp, pre, post, false)
	if !ckTorn.mixAllowed(&CheckContext{Sys: 0}, "/a") {
		t.Error("mix not allowed for write on non-atomic FS")
	}
	ckRename := newAtomChecker(rOp, pre, post, false)
	if ckRename.mixAllowed(&CheckContext{Sys: 0}, "/a") {
		t.Error("mix allowed for rename")
	}
	if ckTorn.mixAllowed(&CheckContext{Sys: -1}, "/a") {
		t.Error("mix allowed outside any syscall")
	}
}

func TestReportBounded(t *testing.T) {
	op := workload.Op{Kind: workload.OpSync}
	ck := &checker{
		caps: vfs.Caps{Name: "test"},
		w:    workload.Workload{Ops: []workload.Op{op}},
		res:  &Result{OpResults: []workload.Result{{Op: op}}},
	}
	for i := 0; i < maxViolationsPerRun+50; i++ {
		ck.report(&CheckContext{Sys: 0}, VAtomicity, "x")
	}
	if len(ck.res.Violations) != maxViolationsPerRun {
		t.Fatalf("violations = %d", len(ck.res.Violations))
	}
	if ck.res.SuppressedViolations != 50 {
		t.Fatalf("suppressed = %d", ck.res.SuppressedViolations)
	}
}

func TestPhaseAndKindStrings(t *testing.T) {
	if PhaseMid.String() != "mid-syscall" || PhasePost.String() != "post-syscall" {
		t.Fatal("phase strings")
	}
	if VUnmountable.String() != "unmountable" || ViolationKind(99).String() == "" {
		t.Fatal("kind strings")
	}
}

func TestSizeBucketMonotone(t *testing.T) {
	last := byte(0)
	for _, n := range []int{0, 1, 8, 9, 64, 65, 512, 513, 4096, 4097} {
		b := sizeBucket(n)
		if b < last {
			t.Fatalf("bucket not monotone at %d", n)
		}
		last = b
	}
}
