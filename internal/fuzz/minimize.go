package fuzz

import (
	"chipmunk/internal/core"
	"chipmunk/internal/workload"
	"context"
	"fmt"
)

// Minimize shrinks a violating workload to a minimal reproducer, the way
// Syzkaller minimizes crashing programs before reporting: it greedily drops
// operations (largest chunks first) and keeps any reduction that still
// triggers a violation. The result is what a developer reads in the bug
// report, so smaller is better.
//
// Every candidate runs under ctx through m, which serves the crash points of
// the op prefixes candidates share (nil: unshared); a cancelled ctx stops the
// shrink with its error. budget bounds the number of engine invocations.
// Candidates are numbered, so no two runs of a shrink share a name.
func Minimize(ctx context.Context, m *core.PrefixMemo, cfg core.Config, w workload.Workload, budget int) (workload.Workload, int, error) {
	execs := 0
	stillBuggy := func(cand workload.Workload) (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		if execs >= budget {
			return false, nil
		}
		execs++
		res, err := m.Run(ctx, cfg, cand)
		if err != nil {
			return false, err
		}
		return res.Buggy(), nil
	}

	// Sanity: the input must reproduce.
	ok, err := stillBuggy(w)
	if err != nil {
		return w, execs, err
	}
	if !ok {
		return w, execs, nil
	}

	cur := append([]workload.Op(nil), w.Ops...)
	// Chunked removal: halves, quarters, ..., single ops.
	for chunk := len(cur) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start+chunk <= len(cur); {
			if execs >= budget {
				break
			}
			cand := make([]workload.Op, 0, len(cur)-chunk)
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[start+chunk:]...)
			if len(cand) == 0 {
				start += chunk
				continue
			}
			ok, err := stillBuggy(workload.Workload{Name: fmt.Sprintf("%s-min%d", w.Name, execs), Ops: cand})
			if err != nil {
				return w, execs, err
			}
			if ok {
				cur = cand // keep the reduction; retry the same start
			} else {
				start += chunk
			}
		}
	}
	return workload.Workload{Name: w.Name + "-min", Ops: cur}, execs, nil
}
