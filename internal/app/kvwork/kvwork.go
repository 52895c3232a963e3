// Package kvwork adapts the WAL KV store (internal/app/kvstore) to the
// Chipmunk engine: an AppFactory that executes OpKV* workload ops against a
// live store, and a crash-contract Checker asserting the store's durability
// contract on every recovered crash state:
//
//  1. acked-durability — mutations acknowledged by a successful kvsync
//     survive recovery;
//  2. seqno-prefix — the recovered state is a prefix of the issued mutation
//     history, with no holes and nothing from the future;
//  3. no-silent-corruption — recovered values are byte-exact (torn or
//     corrupt WAL tails must be truncated, never returned);
//  4. recoverable — recovery itself succeeds on every crash state.
package kvwork

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"chipmunk/internal/app/kvstore"
	"chipmunk/internal/core"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

// Factory returns a workload.AppFactory that opens the KV store (with the
// given seeded bugs) on the run's file system. The engine installs it for
// both the oracle and the target, so live op results stay comparable even
// when a bug is seeded — the contract violations appear in crash states.
func Factory(bugs kvstore.Bugs) workload.AppFactory {
	return func(fs vfs.FS) (workload.AppInstance, error) {
		st, err := kvstore.Open(fs, bugs)
		if err != nil {
			return nil, err
		}
		return &instance{st: st}, nil
	}
}

type instance struct {
	st *kvstore.Store
}

func (in *instance) Exec(op workload.Op) error {
	switch op.Kind {
	case workload.OpKVPut:
		return in.st.Put(op.Path, workload.Data(op.Seed, op.Size))
	case workload.OpKVDel:
		return in.st.Delete(op.Path)
	case workload.OpKVSync:
		return in.st.Sync()
	case workload.OpKVGet:
		val, err := in.st.Get(op.Path)
		if err != nil {
			return err
		}
		if op.Seed != 0 && !bytes.Equal(val, workload.Data(op.Seed, op.Size)) {
			return fmt.Errorf("kv: value mismatch for key %q", op.Path)
		}
		return nil
	default:
		return fmt.Errorf("kvwork: not an app-level op: %v", op.Kind)
	}
}

func (in *instance) Close() error { return in.st.Close() }

// NewChecker returns the CheckerFactory for the KV durability contract.
// bugs must match the Factory's: the checker recovers with the store as
// written (a checker that silently corrected AcceptBadCRC would be testing
// a different program than the one that ran).
func NewChecker(bugs kvstore.Bugs) core.CheckerFactory {
	return func(env core.RunEnv) core.Checker {
		return &kvChecker{env: env, bugs: bugs}
	}
}

type kvChecker struct {
	env  core.RunEnv
	bugs kvstore.Bugs
}

func (c *kvChecker) Name() string { return "kv-wal" }

// observation is what recovering the store from one crash image shows:
// why recovery failed, or the recovered seqno and contents.
type observation struct {
	err  string
	seq  uint64
	snap map[string][]byte
}

func (o *observation) Bytes() int {
	n := len(o.err)
	for k, v := range o.snap {
		n += len(k) + len(v) + 48
	}
	return n
}

// Observe implements core.Checker: it recovers the store from one mounted
// crash state. Safe for concurrent calls, like Judge and Probe: they read
// only the frozen RunEnv and the state's private file system.
func (c *kvChecker) Observe(fs vfs.FS, _ *core.Interner) core.Observation {
	st, err := kvstore.Open(fs, c.bugs)
	if err != nil {
		return &observation{err: fmt.Sprintf("store recovery failed: %v", err)}
	}
	defer st.Close()
	return &observation{seq: st.Seq(), snap: st.Snapshot()}
}

// Judge implements core.Checker: it verifies the durability contract
// against the issued mutation history — the seqno bounds, then the contents.
func (c *kvChecker) Judge(ob core.Observation, cctx *core.CheckContext) *core.Finding {
	ops := c.env.Workload.Ops

	// Bound the legal recovery outcomes by seqno. low: mutations covered by
	// the last successful kvsync among fully acknowledged ops — these MUST
	// survive. high: all mutations issued before the crash, counting an
	// in-flight mutation (its record may or may not have reached the
	// buffer; either outcome is legal) — nothing past this may appear.
	acked := cctx.AckedOps
	if acked > len(ops) {
		acked = len(ops)
	}
	muts, low := 0, 0
	for i := 0; i < acked; i++ {
		switch ops[i].Kind {
		case workload.OpKVPut, workload.OpKVDel:
			muts++
		case workload.OpKVSync:
			if i < len(c.env.OpResults) && c.env.OpResults[i].Err == nil {
				low = muts
			}
		}
	}
	high := muts
	if cctx.Phase == core.PhaseMid && cctx.Sys >= 0 && cctx.Sys < len(ops) {
		switch ops[cctx.Sys].Kind {
		case workload.OpKVPut, workload.OpKVDel:
			high++
		}
	}

	o := ob.(*observation)
	if o.err != "" {
		return &core.Finding{Kind: core.VAppContract, Contract: "recoverable", Detail: o.err}
	}

	m := int(o.seq)
	if m < low {
		return &core.Finding{Kind: core.VAppContract, Contract: "acked-durability",
			Detail: fmt.Sprintf("recovered %d mutations, but %d were acknowledged by kvsync", m, low)}
	}
	if m > high {
		return &core.Finding{Kind: core.VAppContract, Contract: "seqno-prefix",
			Detail: fmt.Sprintf("recovered %d mutations, but only %d were issued before the crash", m, high)}
	}

	// The recovered content must equal the model at exactly m mutations.
	model := replayPrefix(ops, m)
	got := o.snap

	keys := map[string]bool{}
	for k := range model {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	for _, k := range sorted {
		want, inModel := model[k]
		have, inGot := got[k]
		switch {
		case inModel && !inGot:
			return &core.Finding{Kind: core.VAppContract, Contract: "seqno-prefix",
				Detail: fmt.Sprintf("key %q missing after recovering %d mutations", k, m)}
		case !inModel && inGot:
			return &core.Finding{Kind: core.VAppContract, Contract: "seqno-prefix",
				Detail: fmt.Sprintf("unexpected key %q after recovering %d mutations", k, m)}
		case !bytes.Equal(want, have):
			return &core.Finding{Kind: core.VAppContract, Contract: "no-silent-corruption",
				Detail: fmt.Sprintf("key %q: recovered %d bytes, want %d-byte pattern value (mutation %d)",
					k, len(have), len(want), m)}
		}
	}
	return nil
}

// Probe implements core.Checker: there is nothing to probe.
func (c *kvChecker) Probe(vfs.FS, core.Observation) *core.Finding { return nil }

// replayPrefix builds the reference state after the first m mutations of
// the issued history.
func replayPrefix(ops []workload.Op, m int) map[string][]byte {
	model := map[string][]byte{}
	n := 0
	for _, op := range ops {
		if n == m {
			break
		}
		switch op.Kind {
		case workload.OpKVPut:
			n++
			model[op.Path] = workload.Data(op.Seed, op.Size)
		case workload.OpKVDel:
			n++
			delete(model, op.Path)
		}
	}
	return model
}

// ParseBugs parses the CLIs' -app-bugs syntax: "none" (or empty), or a
// comma-separated list of seeded store defects ("ack-loss", "bad-crc").
func ParseBugs(spec string) (kvstore.Bugs, error) {
	var b kvstore.Bugs
	if spec == "" || spec == "none" {
		return b, nil
	}
	for _, part := range strings.Split(spec, ",") {
		switch strings.TrimSpace(part) {
		case "ack-loss":
			b.DropSyncFlush = true
		case "bad-crc":
			b.AcceptBadCRC = true
		default:
			return kvstore.Bugs{}, fmt.Errorf("unknown app bug %q (want ack-loss, bad-crc)", part)
		}
	}
	return b, nil
}
