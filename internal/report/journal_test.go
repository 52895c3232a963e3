package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chipmunk/internal/obs"
)

// TestJournalSummary: the digest covers runs, workloads and fences (read
// from their spans; other spans count toward neither), and per-kind
// violation/quarantine tallies, and ranks slow workloads.
func TestJournalSummary(t *testing.T) {
	events := []obs.Event{
		{Type: "run", FS: "nova"},
		{Type: "span", Name: "workload", FS: "nova", Workload: "fast", States: 10, Violations: 0, DurNanos: 1e6},
		{Type: "span", Name: "workload", FS: "nova", Workload: "slow", States: 40, Violations: 2, DurNanos: 9e6},
		{Type: "span", Name: "fence", FS: "nova", Workload: "slow", Fence: 1, States: 5, Deduped: 2, DurNanos: 4e5},
		{Type: "span", Name: "check", FS: "nova", Workload: "slow", States: 40, DurNanos: 8e6},
		{Type: "violation", FS: "nova", Workload: "slow", Kind: "content-mismatch"},
		{Type: "violation", FS: "nova", Workload: "slow", Kind: "content-mismatch"},
		{Type: "quarantine", FS: "nova", Workload: "slow", Kind: "panic"},
	}
	var sb strings.Builder
	if err := WriteJournalSummary(&sb, events, 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"journal: 8 events",
		"runs: nova",
		"workloads: 2 (50 crash states checked, 2 violations",
		"fences: 1 (5 states, 2 deduped",
		"content-mismatch=2",
		"quarantines by kind: panic=1",
		"slowest workloads:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "WARNING") {
		t.Errorf("clean journal produced a warning:\n%s", out)
	}
	// "slow" must rank above "fast" in the outlier list.
	if strings.Index(out, "slow ") > strings.Index(out, "fast ") {
		t.Errorf("slowest-workload ranking wrong:\n%s", out)
	}
}

// TestJournalSummaryTolerant: corrupt and truncated lines — the tail of a
// journal from a killed run — are skipped with a warning, never an error
// or a panic.
func TestJournalSummaryTolerant(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	raw := `{"type":"run","fs":"pmfs"}
{"type":"span","name":"workload","fs":"pmfs","workload":"w0","states":3,"dur_ns":1000}
{"type":"span","name":"fence","fs":"pmfs","workload":"w0","fence":0,"st
this is not json at all
{"no_type_field":true}
`
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := SummarizeJournalFile(&sb, path); err != nil {
		t.Fatalf("tolerant summary errored: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "journal: 2 events") {
		t.Errorf("expected 2 surviving events:\n%s", out)
	}
	if !strings.Contains(out, "WARNING: 3 corrupt/truncated lines skipped") {
		t.Errorf("missing corruption warning:\n%s", out)
	}

	if err := SummarizeJournalFile(&sb, filepath.Join(t.TempDir(), "absent.jsonl")); err == nil {
		t.Fatal("missing file did not error")
	}
}
