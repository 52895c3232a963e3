// Package fuzz is the gray-box workload fuzzer frontend, standing in for
// the paper's modified Syzkaller (§3.4.2). Starting from a seed corpus (or
// nothing), it mutates workloads with genetic operators — argument
// mutation, op insertion/deletion, splicing — runs each candidate through
// the Chipmunk engine, and keeps candidates that exercise new behaviour.
//
// Coverage substitution: Syzkaller consumes kcov branch coverage, which has
// no Go-stdlib equivalent for code under test in-process. The fuzzer
// instead uses the engine's per-syscall trace signatures (the shape of the
// persistence-function stream) plus live error outcomes — a gray-box
// feedback signal of the same flavour: it distinguishes workloads that
// drive the file system down different durability paths.
//
// Crucially, the fuzzer's argument generators are not confined to ACE's
// lattice: offsets and sizes may be arbitrary (unaligned), and multiple
// file descriptors can target one file — the patterns that expose the four
// ACE-unreachable bugs of §4.3.
package fuzz

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"chipmunk/internal/core"
	"chipmunk/internal/workload"
)

// Fuzzer drives one target file system.
type Fuzzer struct {
	cfg core.Config
	rng *rand.Rand

	corpus   []workload.Workload
	coverage map[uint64]bool

	// KV adds the application-level KV ops (kvput/kvdel/kvsync/kvget) to
	// the mutation vocabulary. Set it when Config carries the KV app
	// factory and contract checker (chipmunk -fuzz -app kv); the flag is
	// read only inside randOp, so KV=false campaigns replay byte-identically
	// to builds that predate it.
	KV bool

	// memo shares checked crash points across the candidates StepDelta
	// runs, which mutation and splicing build from common op prefixes.
	memo *core.PrefixMemo

	// Violations accumulates every report; core.Triage clusters them.
	Violations []core.Violation

	// Census folds every exec's engine Result: Workloads counts the execs,
	// and Obs holds the campaign-wide stage/counter totals (nil unless
	// Config.Obs is set).
	Census     core.Census
	CorpusAdds int
}

// New builds a fuzzer. seeds may be empty (the paper's runs start with an
// empty seed set).
func New(cfg core.Config, seed int64, seeds []workload.Workload) *Fuzzer {
	f := &Fuzzer{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(seed)),
		coverage: map[uint64]bool{},
		memo:     core.NewPrefixMemo(),
	}
	f.corpus = append(f.corpus, seeds...)
	return f
}

var pathPool = []string{"/f0", "/f1", "/f2", "/d0", "/d1", "/d0/f3", "/d0/d2", "/d1/f4", "/l0"}

func (f *Fuzzer) randPath() string { return pathPool[f.rng.Intn(len(pathPool))] }

var kvKeyPool = []string{"alpha", "beta", "gamma", "delta"}

// randKVOp generates one application-level KV op. Puts carry a nonzero
// seed so the contract checker can verify recovered bytes; gets use seed 0
// (presence check only — a fuzzed get has no expected value).
func (f *Fuzzer) randKVOp() workload.Op {
	key := kvKeyPool[f.rng.Intn(len(kvKeyPool))]
	sizes := []int64{1, 16, 64, 200, 512, 1024}
	switch f.rng.Intn(5) {
	case 0, 1:
		return workload.Op{Kind: workload.OpKVPut, Path: key, FDSlot: -1,
			Size: sizes[f.rng.Intn(len(sizes))], Seed: f.rng.Uint32()%1000 + 1}
	case 2:
		return workload.Op{Kind: workload.OpKVDel, Path: key, FDSlot: -1}
	case 3:
		return workload.Op{Kind: workload.OpKVGet, Path: key, FDSlot: -1}
	default:
		return workload.Op{Kind: workload.OpKVSync, FDSlot: -1}
	}
}

// randOp generates one random operation. Offsets and sizes are drawn from
// a mix of aligned and deliberately unaligned values.
func (f *Fuzzer) randOp() workload.Op {
	if f.KV && f.rng.Intn(2) == 0 {
		return f.randKVOp()
	}
	offs := []int64{0, 1, 3, 8, 64, 100, 1024, 2048, 4095, 4096, 4097}
	sizes := []int64{1, 5, 8, 13, 100, 512, 1000, 1024, 4096, 5000}
	slot := -1
	if f.rng.Intn(2) == 0 {
		slot = f.rng.Intn(2)
	}
	switch f.rng.Intn(13) {
	case 0:
		return workload.Op{Kind: workload.OpCreat, Path: f.randPath(), FDSlot: slot}
	case 1:
		return workload.Op{Kind: workload.OpMkdir, Path: f.randPath()}
	case 2:
		return workload.Op{Kind: workload.OpOpen, Path: f.randPath(), FDSlot: f.rng.Intn(2)}
	case 3:
		return workload.Op{Kind: workload.OpClose, FDSlot: f.rng.Intn(2)}
	case 4:
		return workload.Op{Kind: workload.OpWrite, Path: f.randPath(), FDSlot: slot,
			Size: sizes[f.rng.Intn(len(sizes))], Seed: f.rng.Uint32()}
	case 5:
		return workload.Op{Kind: workload.OpPwrite, Path: f.randPath(), FDSlot: slot,
			Off: offs[f.rng.Intn(len(offs))], Size: sizes[f.rng.Intn(len(sizes))], Seed: f.rng.Uint32()}
	case 6:
		return workload.Op{Kind: workload.OpLink, Path: f.randPath(), Path2: f.randPath()}
	case 7:
		return workload.Op{Kind: workload.OpUnlink, Path: f.randPath()}
	case 8:
		return workload.Op{Kind: workload.OpRename, Path: f.randPath(), Path2: f.randPath()}
	case 9:
		return workload.Op{Kind: workload.OpTruncate, Path: f.randPath(), Size: offs[f.rng.Intn(len(offs))]}
	case 10:
		return workload.Op{Kind: workload.OpRmdir, Path: f.randPath()}
	case 11:
		return workload.Op{Kind: workload.OpFalloc, Path: f.randPath(), FDSlot: slot,
			Off: offs[f.rng.Intn(len(offs))], Size: sizes[f.rng.Intn(len(sizes))]}
	default:
		return workload.Op{Kind: workload.OpFsync, Path: f.randPath(), FDSlot: slot}
	}
}

// generate produces a fresh random workload, biased toward creating files
// before using them so more ops succeed. Half the templates pre-populate
// /f0 with data (so later writes are overwrites) and open a second
// descriptor on it — the access patterns a systematic generator like ACE
// omits and that §4.3's fuzzer-only bugs hide behind.
func (f *Fuzzer) generate() workload.Workload {
	n := f.rng.Intn(6) + 3
	ops := []workload.Op{
		{Kind: workload.OpCreat, Path: "/f0", FDSlot: 0},
		{Kind: workload.OpMkdir, Path: "/d0"},
	}
	if f.rng.Intn(2) == 0 {
		ops = append(ops, workload.Op{Kind: workload.OpPwrite, FDSlot: 0, Off: 0,
			Size: int64(f.rng.Intn(2000) + 200), Seed: f.rng.Uint32()})
	}
	if f.rng.Intn(2) == 0 {
		ops = append(ops, workload.Op{Kind: workload.OpOpen, Path: "/f0", FDSlot: 1})
	}
	for i := 0; i < n; i++ {
		ops = append(ops, f.randOp())
	}
	return workload.Workload{Name: fmt.Sprintf("fuzz-gen-%d", f.Census.Workloads), Ops: ops}
}

// mutate applies one genetic operator to a parent workload.
func (f *Fuzzer) mutate(parent workload.Workload) workload.Workload {
	ops := append([]workload.Op(nil), parent.Ops...)
	switch f.rng.Intn(5) {
	case 0: // insert
		i := f.rng.Intn(len(ops) + 1)
		ops = append(ops[:i], append([]workload.Op{f.randOp()}, ops[i:]...)...)
	case 1: // delete
		if len(ops) > 1 {
			i := f.rng.Intn(len(ops))
			ops = append(ops[:i], ops[i+1:]...)
		}
	case 2: // mutate args
		if len(ops) > 0 {
			i := f.rng.Intn(len(ops))
			op := &ops[i]
			switch f.rng.Intn(4) {
			case 0:
				op.Off = f.rng.Int63n(8192)
			case 1:
				op.Size = f.rng.Int63n(6000) + 1
			case 2:
				op.Path = f.randPath()
			case 3:
				op.FDSlot = f.rng.Intn(3) - 1
			}
		}
	case 3: // duplicate an op
		if len(ops) > 0 {
			i := f.rng.Intn(len(ops))
			ops = append(ops[:i], append([]workload.Op{ops[i]}, ops[i:]...)...)
		}
	case 4: // splice with another corpus entry
		if len(f.corpus) > 0 {
			other := f.corpus[f.rng.Intn(len(f.corpus))]
			cut := f.rng.Intn(len(ops) + 1)
			ops = append(ops[:cut], other.Ops...)
		}
	}
	if len(ops) > 24 {
		ops = ops[:24]
	}
	return workload.Workload{Name: fmt.Sprintf("fuzz-mut-%d", f.Census.Workloads), Ops: ops}
}

// Delta is one fuzzing step's contribution: the candidate workload, the
// engine result, and — when the candidate earned a corpus slot — the trace
// signatures that made it novel. fleet.Node ships Deltas over the wire, so
// everything here is a pure function of (seed, corpus, step index).
type Delta struct {
	Workload workload.Workload
	Result   *core.Result
	// Admitted reports whether Workload joined the corpus this step.
	Admitted bool
	// NewSigs are the signatures unseen before this step; AllSigs is the
	// candidate's full signature set. Both sorted ascending.
	NewSigs []uint64
	AllSigs []uint64
}

// StepDelta runs one fuzzing iteration and reports what it contributed.
func (f *Fuzzer) StepDelta() (Delta, error) {
	var w workload.Workload
	if len(f.corpus) == 0 || f.rng.Intn(4) == 0 {
		w = f.generate()
	} else {
		w = f.mutate(f.corpus[f.rng.Intn(len(f.corpus))])
	}
	// The engine's sandbox contains per-crash-state panics; one on the
	// coordinator path (trace recording, enumeration) propagates to the
	// caller, where fleet's lease.RunUnit turns it into a failed round.
	res, err := f.memo.Run(context.Background(), f.cfg, w)
	if err != nil {
		return Delta{Workload: w}, err
	}
	f.Census.Add(res)

	// Coverage feedback: new trace-shape signatures promote the workload
	// into the corpus.
	d := Delta{Workload: w, Result: res, AllSigs: sortedSigs(res.SyscallSigs)}
	for _, sig := range d.AllSigs {
		if !f.coverage[sig] {
			f.coverage[sig] = true
			d.NewSigs = append(d.NewSigs, sig)
		}
	}
	if len(d.NewSigs) > 0 {
		f.corpus = append(f.corpus, w)
		f.CorpusAdds++
		d.Admitted = true
	}
	f.Violations = append(f.Violations, res.Violations...)
	return d, nil
}

// Step runs one fuzzing iteration and returns the engine result.
func (f *Fuzzer) Step() (*core.Result, workload.Workload, error) {
	d, err := f.StepDelta()
	return d.Result, d.Workload, err
}

// Absorb injects an externally-discovered corpus entry (a coordinator
// redistribution in fleet mode): sigs join the coverage map, and w earns a
// corpus slot iff any of them was still unseen. Reports whether w was
// admitted. Callers that need determinism must absorb entries in a
// canonical order — corpus slots are assigned in call order.
func (f *Fuzzer) Absorb(w workload.Workload, sigs []uint64) bool {
	novel := false
	for _, sig := range sigs {
		if !f.coverage[sig] {
			f.coverage[sig] = true
			novel = true
		}
	}
	if novel {
		f.corpus = append(f.corpus, w)
		f.CorpusAdds++
	}
	return novel
}

// sortedSigs returns a sorted copy (dedup preserved — signatures repeat per
// syscall and the multiset shape is part of the wire contract's AllSigs).
func sortedSigs(sigs []uint64) []uint64 {
	out := append([]uint64(nil), sigs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Run performs n iterations.
func (f *Fuzzer) Run(n int) error {
	for i := 0; i < n; i++ {
		if _, _, err := f.Step(); err != nil {
			return err
		}
	}
	return nil
}

// CorpusSize reports how many workloads the corpus holds.
func (f *Fuzzer) CorpusSize() int { return len(f.corpus) }

// CoverageSize reports the number of distinct trace signatures seen.
func (f *Fuzzer) CoverageSize() int { return len(f.coverage) }
