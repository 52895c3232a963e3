package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chipmunk/internal/core"
)

func TestWriteQuarantineLedger(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Empty ledger: nothing written, no error.
	path, err := w.WriteQuarantine("nova", nil, 0)
	if err != nil || path != "" {
		t.Fatalf("empty ledger: path %q, err %v", path, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "QUARANTINE.txt")); !os.IsNotExist(err) {
		t.Fatal("empty ledger wrote QUARANTINE.txt")
	}

	entries := []core.Quarantine{{
		Workload: "fuzz-gen-3",
		Fence:    2,
		Sys:      1,
		Phase:    core.PhaseMid,
		Rank:     4,
		Subset:   []int{0, 2},
		StateKey: 0xdeadbeef,
		Kind:     core.VPanic,
		Detail:   "check panicked: boom",
		Stack:    "goroutine 7 [running]:\nmain.boom()",
	}}
	path, err = w.WriteQuarantine("nova", entries, 5)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		"nova", "fuzz-gen-3", "check-panic", "fence 2", "rank 4",
		"00000000deadbeef", "check panicked: boom", "goroutine 7",
		"5 more quarantined states suppressed",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("QUARANTINE.txt missing %q:\n%s", want, text)
		}
	}
}
