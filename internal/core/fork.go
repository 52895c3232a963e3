package core

import (
	"fmt"

	"chipmunk/internal/fs/memfs"
	"chipmunk/internal/persist"
	"chipmunk/internal/pmem"
	"chipmunk/internal/trace"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

// This file is the fork chain, harness.Run's work sharing: the prefix memo
// shares the verdicts of an op prefix's crash points, a chain the work
// before them. Its runs share one rig (arena.go), trace log included. At an op
// boundary a later run shares, a run leaves a fork point — the oracle and
// the guest copied, the recording device marked in its undo log and its
// page set copied, the log's length — and the later run restores it and
// oracles and records only its suffix. The walk still replays the whole log
// from the post-Mkfs baseline.
// DESIGN.md ("Prefix memo") argues why a forked run returns the unforked
// Result. A guest that is no vfs.Forker starts every run from Mkfs.

// Chain runs workloads one after another, sharing the work of their common
// op prefixes. It is owned by one goroutine, and owns the rig its runs reuse
// (arena.go); Close returns it.
type Chain struct {
	memo *PrefixMemo
	cfg  Config
	rg   *rig
	pm   *persist.PM
	// forks says the guest is a vfs.Forker (known from the first Mkfs on).
	// The rig's template holds the last Mkfs's persistent image, and the
	// device's undo log the writes since, when that Mkfs took points. path
	// is the ops of the last run, points its fork points on them by depth.
	forks  bool
	path   []workload.Op
	points []*forkPoint
}

// forkPoint is a run's state after its first depth ops. Nothing in it is
// written again: a run starting here copies the oracle and the guest, and
// shares the states and results read-only.
type forkPoint struct {
	depth         int
	oracle        *memfs.FS
	states        []vfs.State // the oracle states before ops 0..depth-1
	oracleResults []workload.Result
	guest         vfs.FS // a Forker's copy, never run
	dev           pmem.DeviceMark
	pages         *pmem.PageSet // the recording device's pages
	logLen        int           // the log's Len and DataLen
	logData       int
	results       []workload.Result
}

// Chain returns an empty chain whose runs share crash points through m
// (nil: none). All its runs use cfg.
func (m *PrefixMemo) Chain(cfg Config) *Chain { return &Chain{memo: m, cfg: cfg} }

// Close puts the chain's rig back on the free list for later chains. Its
// checker drops the guest: the rig's next chain may check another system.
func (c *Chain) Close() {
	if c.rg == nil {
		return
	}
	c.rg.dev.TrackUndo(nil)
	if ck := c.rg.ck; ck != nil {
		ck.clear()
		ck.guest = nil
	}
	putRig(c.rg)
}

// plan picks the point w starts from — the deepest on an op prefix of w,
// nil for none — drops the points past it, and opens w's new points: at
// each depth of keep (increasing) past the start, where w may fork.
func (c *Chain) plan(w workload.Workload, keep []int) (from *forkPoint, pts []*forkPoint) {
	n := 0
	for n < len(c.path) && n < len(w.Ops) && c.path[n] == w.Ops[n] {
		n++
	}
	c.path = nil // until this run's record pass is through
	i := len(c.points)
	for i > 0 && c.points[i-1].depth > n {
		i--
	}
	clear(c.points[i:])
	c.points = c.points[:i]
	depth := -1
	if i > 0 {
		from, depth = c.points[i-1], c.points[i-1].depth
	}
	for _, d := range keep {
		if c.forks && d > depth && d <= len(w.Ops) && w.Forkable(d) {
			pts = append(pts, &forkPoint{depth: d})
			depth = d
		}
	}
	return from, pts
}

// restore readies the rig and log for a run from point from (nil: from
// Mkfs) and returns the target as it stands there. mark says the run takes
// fork points, so a run from Mkfs starts the undo log they need.
func (c *Chain) restore(from *forkPoint, size int, mark bool) (vfs.FS, error) {
	if from != nil {
		// The last walk wrote the baseline only where it applied entries of
		// the log: copying the template back there makes it the template.
		for _, e := range c.rg.log.Entries() {
			copy(c.rg.baseline[e.Off:], c.rg.tmpl[e.Off:e.Off+int64(len(e.Data))])
		}
		c.rg.dev.Restore(from.dev)
		// The rollback zeroed every page first written since the mark.
		c.rg.devPages.Assign(from.pages)
		c.rg.log.Truncate(from.logLen, from.logData)
		return from.guest.(vfs.Forker).Fork(c.pm), nil
	}
	if c.rg == nil {
		c.rg = grabRig(size)
		c.pm = persist.New(c.rg.dev)
		c.pm.TraceStores = c.cfg.TraceStores
	} else {
		c.rg.devPages.Clear(c.rg.vol, c.rg.pers)
		c.rg.dev.Reset()
	}
	rg := c.rg
	rg.dev.TrackUndo(nil)
	target := c.cfg.NewFS(c.pm)
	if err := target.Mkfs(); err != nil {
		return nil, fmt.Errorf("target mkfs: %w", err)
	}
	_, c.forks = target.(vfs.Forker)
	// The baseline and the template are the persistent image after Mkfs,
	// copied over the pages either may hold non-zero bytes on.
	rg.basePages.Copy(rg.baseline, rg.pers, rg.devPages)
	rg.tmplPages.Copy(rg.tmpl, rg.pers, rg.devPages)
	if mark {
		rg.dev.TrackUndo(pmem.NewUndoLog(nil))
	}
	if rg.log == nil {
		rg.log = trace.NewLog()
	} else {
		rg.log.Reset()
	}
	return target, nil
}
