// Command journaltool inspects run journals written by the -journal flag
// of chipmunk and experiments:
//
//	journaltool run.jsonl                       # human-readable summary
//	journaltool -strict run.jsonl               # fail (exit 1) on corrupt lines
//	journaltool -canonical run.jsonl            # sorted canonical event keys
//	journaltool -merge -o merged.jsonl w1.jsonl w2.jsonl
//	journaltool -timeline w1.jsonl w2.jsonl     # per-trace span waterfalls
//	journaltool -triage merged.jsonl            # deduplicated violation census
//	journaltool -triage -o reports merged.jsonl # ... written as reports/TRIAGE.txt
//
// The reader is tolerant by design — a journal truncated by a crashed or
// killed run still summarizes, with a warning counting the skipped lines.
// -strict turns that warning into a failure, which is what CI uses to
// assert a run produced valid JSONL. -canonical emits each event's
// order-normalized identity (timestamps and durations cleared), one per
// line, sorted: diffing two runs' canonical dumps verifies the journal
// determinism contract (serial and parallel runs of one suite produce the
// same event multiset).
//
// -merge order-normalizes and concatenates several journals into one
// canonical stream (Event.CanonicalKey order, wall-clock fields cleared) —
// how the per-worker journals of a distributed campaign become one
// analyzable run record. The output is clean JSONL: it round-trips through
// journaltool itself, -strict included. A SIGKILLed worker's torn final
// line is skipped and counted like any other corrupt line.
//
// -timeline consumes RAW journals (before -merge: canonicalization clears
// the wall-clock fields a waterfall needs) and renders each trace's spans
// as an ASCII waterfall plus a per-stage breakdown of where the time went.
// -triage clusters violation events by (violation kind, file system,
// canonical trace prefix) into a deduplicated census — deterministic for a
// given event multiset, so two merge orders produce identical output.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"chipmunk/internal/obs"
	"chipmunk/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("journaltool", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		strict    = fl.Bool("strict", false, "exit nonzero if any journal line is corrupt or truncated")
		canonical = fl.Bool("canonical", false, "dump sorted canonical event keys instead of a summary")
		merge     = fl.Bool("merge", false, "order-normalize and concatenate all input journals into one canonical JSONL stream")
		timeline  = fl.Bool("timeline", false, "render per-trace span waterfalls and a stage breakdown (raw journals)")
		triage    = fl.Bool("triage", false, "cluster violations by (kind, fs, trace prefix) into a deduplicated census")
		out       = fl.String("o", "", "with -merge: write the merged stream here; with -triage: write TRIAGE.txt under this directory")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	multi := *merge || *timeline || *triage
	if fl.NArg() < 1 || (!multi && fl.NArg() != 1) {
		fmt.Fprintln(stderr, "usage: journaltool [-strict] [-canonical] <journal.jsonl>")
		fmt.Fprintln(stderr, "       journaltool -merge [-strict] [-o merged.jsonl] <journal.jsonl>...")
		fmt.Fprintln(stderr, "       journaltool -timeline <journal.jsonl>...")
		fmt.Fprintln(stderr, "       journaltool -triage [-o reportdir] <journal.jsonl>...")
		return 2
	}

	lists := make([][]obs.Event, 0, fl.NArg())
	skipped := 0
	for _, path := range fl.Args() {
		events, skip, err := obs.ReadJournalFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "journaltool:", err)
			return 2
		}
		if skip > 0 {
			fmt.Fprintf(stderr, "journaltool: %d corrupt/truncated lines in %s\n", skip, path)
		}
		lists = append(lists, events)
		skipped += skip
	}
	flat := lists[0]
	if len(lists) > 1 {
		flat = nil
		for _, l := range lists {
			flat = append(flat, l...)
		}
	}

	switch {
	case *merge:
		merged := obs.CanonicalEvents(lists...)
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintln(stderr, "journaltool:", err)
				return 2
			}
			bw := bufio.NewWriter(f)
			err = obs.WriteEvents(bw, merged)
			if err == nil {
				err = bw.Flush()
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(stderr, "journaltool:", err)
				return 2
			}
			fmt.Fprintf(stderr, "journaltool: merged %d events from %d journals into %s\n",
				len(merged), fl.NArg(), *out)
		} else if err := obs.WriteEvents(stdout, merged); err != nil {
			fmt.Fprintln(stderr, "journaltool:", err)
			return 2
		}
	case *timeline:
		if _, err := report.WriteTimeline(stdout, flat); err != nil {
			fmt.Fprintln(stderr, "journaltool:", err)
			return 2
		}
	case *triage:
		clusters := report.TriageEvents(flat)
		if *out != "" {
			w, err := report.NewWriter(*out)
			if err != nil {
				fmt.Fprintln(stderr, "journaltool:", err)
				return 2
			}
			path, err := w.WriteTriage(flat)
			if err != nil {
				fmt.Fprintln(stderr, "journaltool:", err)
				return 2
			}
			fmt.Fprintf(stderr, "journaltool: triaged %d clusters into %s\n", len(clusters), path)
		}
		if err := report.WriteTriageCensus(stdout, clusters); err != nil {
			fmt.Fprintln(stderr, "journaltool:", err)
			return 2
		}
	case *canonical:
		keys := make([]string, len(lists[0]))
		for i, e := range lists[0] {
			keys[i] = e.CanonicalKey()
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintln(stdout, k)
		}
	default:
		if err := report.WriteJournalSummary(stdout, lists[0], skipped); err != nil {
			fmt.Fprintln(stderr, "journaltool:", err)
			return 2
		}
	}
	if *strict && skipped > 0 {
		fmt.Fprintf(stderr, "journaltool: %d corrupt/truncated lines total\n", skipped)
		return 1
	}
	return 0
}
