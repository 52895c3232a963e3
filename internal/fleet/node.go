package fleet

import (
	"context"
	"fmt"
	"sync/atomic"

	"chipmunk/internal/core"
	"chipmunk/internal/fuzz"
	"chipmunk/internal/workload"
)

// Node runs one fuzzing round: a fresh fuzz.Fuzzer seeded with the round's
// RNG seed and the coordinator's corpus cut, absorbed in log order (the log
// IS the canonical order — each entry was admitted exactly because it
// carried a then-unseen signature, so replaying it in order reconstructs
// the same corpus and coverage on every worker). Everything a round
// produces is a pure function of (spec, round index, corpus cut).
type Node struct {
	fz *fuzz.Fuzzer
	// progress mirrors fz.Census.StatesChecked after each completed
	// iteration; the heartbeat goroutine reads it concurrently with
	// RunRound, so it cannot touch the fuzzer's plain fields directly.
	progress atomic.Int64
}

// NewNode builds a round's fuzzer from the coordinator's corpus cut.
// Entries that fail to parse are rejected as corrupt — a node must never
// silently fuzz against a different corpus than its peers.
func NewNode(cfg core.Config, seed int64, kv bool, corpus []CorpusEntry) (*Node, error) {
	fz := fuzz.New(cfg, seed, nil)
	fz.KV = kv
	for i, e := range corpus {
		w, err := workload.Parse(e.Text)
		if err != nil {
			return nil, fmt.Errorf("fleet: corpus entry %d unparseable: %w", i, err)
		}
		fz.Absorb(w, e.Sigs)
	}
	return &Node{fz: fz}, nil
}

// RunRound executes execs fuzzing iterations and returns the round's
// result with its round fields filled in: the census totals, and the corpus
// entries and violations it produced. Cancellation between iterations
// returns ctx's error; the lease expires and the round re-runs whole
// elsewhere — partial rounds are never credited.
func (n *Node) RunRound(ctx context.Context, execs int) (*FuzzResult, error) {
	r := &FuzzResult{Kind: ResultRound}
	for i := 0; i < execs; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sd, err := n.fz.StepDelta()
		if err != nil {
			return nil, err
		}
		if sd.Admitted {
			e := CorpusEntry{Text: workload.Format(sd.Workload), Sigs: sd.AllSigs}
			e.Sum = EntrySum(e)
			r.NewEntries = append(r.NewEntries, e)
		}
		for _, v := range sd.Result.Violations {
			r.Violations = append(r.Violations, NewFuzzViolation(v))
		}
		n.progress.Store(int64(n.fz.Census.StatesChecked))
	}
	c := &n.fz.Census
	r.Execs, r.StatesChecked, r.Obs = c.Workloads, c.StatesChecked, c.Obs
	r.QuarantinedChecks = len(c.Quarantined) + c.SuppressedQuarantine
	return r, nil
}

// Progress reports crash states checked so far (heartbeat piggyback).
// Safe to call concurrently with RunRound.
func (n *Node) Progress() int { return int(n.progress.Load()) }
