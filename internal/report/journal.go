package report

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"chipmunk/internal/obs"
)

// WriteJournalSummary renders a human-readable digest of a run journal:
// what ran, what it found, and where the time went — the §6.3-style
// breakdown recoverable from the JSONL stream without rerunning anything.
// Workload and fence totals come from their spans.
// Corrupt or truncated lines were already skipped by the tolerant reader;
// skipped says how many, and is surfaced as a warning, never an error — a
// journal from a killed run must still summarize.
func WriteJournalSummary(w io.Writer, events []obs.Event, skipped int) error {
	var (
		byType     = map[string]int{}
		violKind   = map[string]int{}
		quarKind   = map[string]int{}
		workloads  []obs.Event
		states     int
		deduped    int
		fences     int
		fenceNanos int64
		runFS      []string
	)
	for _, e := range events {
		byType[e.Type]++
		switch e.Type {
		case "run":
			runFS = append(runFS, e.FS)
		case "span":
			switch e.Name {
			case "workload":
				workloads = append(workloads, e)
			case "fence":
				fences++
				states += e.States
				deduped += e.Deduped
				fenceNanos += e.DurNanos
			}
		case "violation":
			violKind[e.Kind]++
		case "quarantine":
			quarKind[e.Kind]++
		}
	}

	fmt.Fprintf(w, "journal: %d events", len(events))
	if skipped > 0 {
		fmt.Fprintf(w, " (WARNING: %d corrupt/truncated lines skipped)", skipped)
	}
	fmt.Fprintln(w)
	if len(runFS) > 0 {
		fmt.Fprintf(w, "runs: %s\n", strings.Join(runFS, ", "))
	}

	var wlNanos int64
	var wlStates, wlViol int
	for _, e := range workloads {
		wlNanos += e.DurNanos
		wlStates += e.States
		wlViol += e.Violations
	}
	fmt.Fprintf(w, "workloads: %d (%d crash states checked, %d violations, %v total)\n",
		len(workloads), wlStates, wlViol, time.Duration(wlNanos).Round(time.Millisecond))
	fmt.Fprintf(w, "fences: %d (%d states, %d deduped, %v in enumerate+check)\n",
		fences, states, deduped, time.Duration(fenceNanos).Round(time.Millisecond))
	fmt.Fprintf(w, "events by type: %s\n", renderCounts(byType))
	if len(violKind) > 0 {
		fmt.Fprintf(w, "violations by kind: %s\n", renderCounts(violKind))
	}
	if len(quarKind) > 0 {
		fmt.Fprintf(w, "quarantines by kind: %s\n", renderCounts(quarKind))
	}

	// The slowest workloads are where a tuning pass starts; five is enough
	// to point at the outliers without drowning the digest.
	if len(workloads) > 0 {
		sort.SliceStable(workloads, func(i, j int) bool {
			return workloads[i].DurNanos > workloads[j].DurNanos
		})
		top := workloads
		if len(top) > 5 {
			top = top[:5]
		}
		fmt.Fprintln(w, "slowest workloads:")
		for _, e := range top {
			fmt.Fprintf(w, "  %-30s %8v  (%d states, %d violations)\n",
				e.Workload, time.Duration(e.DurNanos).Round(time.Microsecond),
				e.States, e.Violations)
		}
	}
	return nil
}

// SummarizeJournalFile reads the journal at path tolerantly and writes its
// summary to w. Only I/O failures are errors.
func SummarizeJournalFile(w io.Writer, path string) error {
	events, skipped, err := obs.ReadJournalFile(path)
	if err != nil {
		return err
	}
	return WriteJournalSummary(w, events, skipped)
}

// renderCounts formats a name->count map deterministically (descending
// count, then name).
func renderCounts(m map[string]int) string {
	type kv struct {
		k string
		v int
	}
	kvs := make([]kv, 0, len(m))
	for k, v := range m {
		kvs = append(kvs, kv{k, v})
	}
	sort.Slice(kvs, func(i, j int) bool {
		if kvs[i].v != kvs[j].v {
			return kvs[i].v > kvs[j].v
		}
		return kvs[i].k < kvs[j].k
	})
	parts := make([]string, len(kvs))
	for i, e := range kvs {
		parts[i] = fmt.Sprintf("%s=%d", e.k, e.v)
	}
	return strings.Join(parts, " ")
}
