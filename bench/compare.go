package main

import (
	"errors"
	"fmt"
	"io"
)

// Verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// row is one line of a comparison: metric on workload, base A against B.
type row struct {
	Workload, Metric string
	A, B             float64 // medians; the ratio's base is A
	Spread           float64 // the wider of the two sides' quartile spreads
	Bound            float64
	Verdict          string
}

// judge applies one bound. worse is how much worse B's median is than A's
// as a share of A (negative = better). Where either side's run-to-run
// spread is wider than the bound the row cannot be resolved — unless the
// samples do not overlap at all, which settles it either way.
func judge(d metricDef, a, b []float64) row {
	r := row{Metric: d.Name, A: median(a), B: median(b), Bound: d.Bound, Spread: max(spread(a), spread(b))}
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	worse := sign * ratio(r.B-r.A, r.A)
	allBetter, allWorse := disjoint(a, b, sign)
	switch {
	case allBetter:
		r.Verdict = verdictOK
	case r.Spread > d.Bound && !allWorse:
		r.Verdict = verdictUnresolved
	case worse > d.Bound:
		r.Verdict = verdictRegressed
	default:
		r.Verdict = verdictOK
	}
	return r
}

// disjoint reports whether every sample of b reads better than every sample
// of a, or every one worse (sign +1 = lower is better).
func disjoint(a, b []float64, sign float64) (allBetter, allWorse bool) {
	if len(a) == 0 || len(b) == 0 {
		return false, false
	}
	sa, sb := sortedCopy(a), sortedCopy(b)
	if sign < 0 {
		return sb[0] > sa[len(sa)-1], sb[len(sb)-1] < sa[0]
	}
	return sb[len(sb)-1] < sa[0], sb[0] > sa[len(sa)-1]
}

// judgeFailed applies failed_share's absolute bound of 0: any failure in B
// that A did not have is a regression, whatever the timings say.
func judgeFailed(a, b *result) row {
	r := row{Metric: "failed_share", A: a.FailedShare, B: b.FailedShare, Verdict: verdictOK}
	if b.FailedShare > a.FailedShare {
		r.Verdict = verdictRegressed
	}
	return r
}

// compareSummaries judges every (metric, workload) row of B against A.
func compareSummaries(a, b *summary) []row {
	var rows []row
	for _, w := range workloads {
		ra, rb := a.Workloads[w.Name], b.Workloads[w.Name]
		if ra == nil || rb == nil {
			rows = append(rows, row{Workload: w.Name, Metric: "(missing)", Verdict: verdictUnresolved})
			continue
		}
		for _, d := range endToEnd {
			r := judge(d, ra.Samples[d.Name], rb.Samples[d.Name])
			r.Workload = w.Name
			rows = append(rows, r)
		}
		r := judgeFailed(ra, rb)
		r.Workload = w.Name
		rows = append(rows, r)
	}
	return rows
}

// runCompare is -compare A.json B.json: print every row, exit non-zero on a
// regression.
func runCompare(w io.Writer, pathA, pathB string) int {
	var a, b summary
	if err := errors.Join(readJSON(pathA, &a), readJSON(pathB, &b)); err != nil {
		fmt.Fprintf(w, "bench: %v\n", err)
		return 2
	}
	if a.Meta.Traced || b.Meta.Traced {
		fmt.Fprintln(w, "bench: -compare judges end-to-end metrics; a traced summary has none")
		return 2
	}
	fmt.Fprintf(w, "base A = %s (seed %d, %s)\n     B = %s (seed %d, %s)\n", pathA, a.Meta.Seed, a.Meta.GitSHA, pathB, b.Meta.Seed, b.Meta.GitSHA)
	fmt.Fprintf(w, "%-20s %-18s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "B/A", "spread", "bound", "verdict")
	code := 0
	for _, r := range compareSummaries(&a, &b) {
		fmt.Fprintf(w, "%-20s %-18s %12.6g %12.6g %8.4f %7.2f%% %6.0f%%  %s\n",
			r.Workload, r.Metric, r.A, r.B, ratio(r.B, r.A), r.Spread*100, r.Bound*100, r.Verdict)
		if r.Verdict == verdictRegressed {
			code = 1
		}
	}
	return code
}
