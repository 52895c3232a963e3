package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"chipmunk/internal/obs"
	"chipmunk/internal/workload"
)

// This file is the prefix memo, harness.Run's verdict sharing. A crash
// point in op s — a fence inside s, or the post-syscall state after it —
// has a verdict that is a pure function of ops[0..s] (DESIGN.md, "Prefix
// memo", makes the argument). So a node keyed on the Format lines of
// ops[0..s] records op s's points in walk order, and a later run with that
// prefix replays its trace as usual but re-folds the node's outcomes under
// its own workload instead of enumerating and checking the points again.
// Points outside any syscall (the close tail after the last op) depend on
// the whole workload and are never stored or served. A node is published
// once all of op s's points finished with no cancellation and no abandoned
// guest phase; the first publisher wins.

// PrefixMemo shares checked crash points between the engine runs of one
// suite. It is safe for concurrent runs, which must all use the same
// Config; RunContext runs without one.
type PrefixMemo struct {
	mu    sync.Mutex
	nodes map[string]*prefixNode
	// table shares the observations of mounted crash images (observe.go).
	table obsTable
}

// NewPrefixMemo returns an empty memo.
func NewPrefixMemo() *PrefixMemo {
	return &PrefixMemo{nodes: make(map[string]*prefixNode), table: obsTable{entries: make(map[imageHash]*obsEntry)}}
}

// Run is RunContext with the crash points of already-checked op prefixes
// served from m (nil: none) instead of checked again.
func (m *PrefixMemo) Run(ctx context.Context, cfg Config, w workload.Workload) (*Result, error) {
	c := m.Chain(cfg)
	defer c.Close()
	return c.Run(ctx, w, nil)
}

// prefixNode is the record of one op's crash points, in walk order.
// Immutable once published.
type prefixNode struct{ points []memoPoint }

// memoPoint is one crash point of a node: enumeration's counts at it and
// its non-clean outcomes in rank order, stored by stripOutcome.
type memoPoint struct {
	fence     int // 1-based fence ordinal; 0 = the post-syscall point
	inFlight  int
	states    int
	deduped   int
	filtered  int
	truncated bool
	coalesced int64
	outs      []checkOutcome
}

func (m *PrefixMemo) lookup(key []byte) *prefixNode {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nodes[string(key)]
}

func (m *PrefixMemo) publish(key []byte, n *prefixNode) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.nodes[string(key)]; !ok {
		m.nodes[string(key)] = n
	}
}

// memoWalk is one run's position in its memo. Owner-only, like the cursor.
type memoWalk struct {
	m      *PrefixMemo // nil: no sharing
	keyOps int         // checker.prefix holds the Format lines of ops[0..keyOps)
	// op is the op whose crash points are being served from serve (next is
	// the next one) or recorded into rec; -1 between ops. abandonedAt is the
	// run's abandonment count when recording began.
	op          int
	serve       *prefixNode
	next        int
	rec         *prefixNode
	abandonedAt int64
}

// serveMemo serves the crash point the walk just reached — fence ordinal
// fence in op sys, or its post-syscall point when fence is 0 — from the
// memo, and reports whether it did. At op sys's first point it decides, once,
// whether the op is served from a published node or recorded into a new one.
func (ck *checker) serveMemo(sys, fence int) (bool, error) {
	mw := &ck.memo
	if mw.m == nil || sys < 0 {
		return false, nil
	}
	if mw.op != sys {
		mw.op, mw.next, mw.rec = sys, 0, nil
		if mw.serve = mw.m.lookup(ck.prefixKey(sys)); mw.serve == nil {
			mw.rec, mw.abandonedAt = &prefixNode{}, ck.abandoned.Load()
		}
	}
	if mw.serve == nil {
		return false, nil
	}
	if mw.next == len(mw.serve.points) || mw.serve.points[mw.next].fence != fence {
		return false, ck.memoDiverged(sys)
	}
	pt := &mw.serve.points[mw.next]
	mw.next++

	ck.res.StatesChecked += pt.states - len(pt.outs)
	ck.res.StatesDeduped += pt.deduped
	ck.res.FilteredWrites += pt.filtered
	if pt.truncated {
		ck.res.TruncatedFences++
	}
	ck.spansCoalesced += pt.coalesced
	ck.obs.Add(obs.CtrMemoServed, int64(pt.states))
	for _, out := range pt.outs {
		ck.fold(ck.relabel(out))
	}
	if fence > 0 {
		c := &ck.cur
		c.cctx = fenceCtx(sys, c.lastDone)
		c.cctx.Fence = fence
		c.inFlight, c.deduped = pt.inFlight, pt.deduped
		c.spanStart = time.Time{}
		ck.fenceDone(sys, pt.states)
	}
	return true, nil
}

// recordPoint opens a crash point of the op being recorded; fold appends
// its non-clean outcomes.
func (ck *checker) recordPoint(pt memoPoint) {
	if r := ck.memo.rec; r != nil {
		r.points = append(r.points, pt)
	}
}

// recordOutcome keeps a folded outcome of the op being recorded, unless it
// was clean.
func (ck *checker) recordOutcome(out checkOutcome) {
	r := ck.memo.rec
	if r == nil || (out.v == nil && out.q == nil) {
		return
	}
	pt := &r.points[len(r.points)-1]
	pt.outs = append(pt.outs, stripOutcome(out))
}

// closeOp ends op sys's crash points: a served node must be used up, and a
// recorded one is published unless a guest phase was abandoned meanwhile.
func (ck *checker) closeOp(sys int) error {
	mw := &ck.memo
	if mw.m == nil || mw.op != sys {
		return nil
	}
	if mw.serve != nil && mw.next != len(mw.serve.points) {
		return ck.memoDiverged(sys)
	}
	if mw.rec != nil && ck.abandoned.Load() == mw.abandonedAt {
		mw.m.publish(ck.prefixKey(sys), mw.rec)
	}
	mw.op, mw.serve, mw.rec = -1, nil, nil
	return nil
}

// prefixKey returns the Format lines of ops[0..sys]. The walk meets ops in
// order, so the key only ever grows by appending.
func (ck *checker) prefixKey(sys int) []byte {
	mw := &ck.memo
	for ; mw.keyOps <= sys; mw.keyOps++ {
		ck.prefix = append(workload.AppendOp(ck.prefix, ck.w.Ops[mw.keyOps]), '\n')
	}
	return ck.prefix
}

func (ck *checker) memoDiverged(sys int) error {
	return fmt.Errorf("core: prefix memo: op %d of %s has other crash points than the run that published its prefix (nondeterministic guest?)", sys, ck.w.Name)
}

// stripOutcome is an outcome as the memo stores it: no workload identity,
// no arena-backed slices (violation and quarantine subsets are clones).
func stripOutcome(out checkOutcome) checkOutcome {
	out.ctx.Subset = nil
	if out.v != nil {
		v := *out.v
		v.Workload = workload.Workload{}
		out.v = &v
	}
	if out.q != nil {
		q := *out.q
		q.Workload = ""
		out.q = &q
	}
	return out
}

// relabel attributes a stored outcome to this run's workload.
func (ck *checker) relabel(out checkOutcome) checkOutcome {
	if out.v != nil {
		v := *out.v
		v.Workload, v.SysName = ck.w, ck.sysName(v.Syscall)
		out.v = &v
	}
	if out.q != nil {
		q := *out.q
		q.Workload = ck.w.Name
		out.q = &q
	}
	return out
}
