package harness

import (
	"fmt"
	"time"

	"chipmunk/internal/obs"
)

// This file is the CLIs' shared observability bundle: the Instrumentation
// that the -stats, -journal, and -debug-addr flags (bound via BindCLI in
// cli.go) resolve to. The three commands build one Instrumentation, apply
// it to their Options, and close it on exit.

// Instrumentation bundles one run's observability plumbing: the live
// metrics collector, the run journal and the local run's tracer on it, and
// the debug listener. Any field may be nil (that facility is off); all
// methods are nil-safe on the receiver too, so call sites need no guards.
type Instrumentation struct {
	Col     *obs.Collector
	Journal *obs.Journal
	Tracer  *obs.Tracer
	Debug   *obs.DebugServer
	stats   bool
}

// Apply wires the instrumentation into an Options value.
func (in *Instrumentation) Apply(o *Options) {
	if in == nil {
		return
	}
	o.Obs = in.Col
	o.Tracer = in.Tracer
}

// EmitRun journals the run-level header event (suite size, target FS).
func (in *Instrumentation) EmitRun(fsName string, workloads int) {
	if in == nil {
		return
	}
	in.Tracer.Emit(obs.Event{Type: "run", FS: fsName, Sys: -1, States: workloads})
}

// Progress publishes suite progress to the debug listener; shaped to slot
// into a WithProgress callback.
func (in *Instrumentation) Progress(done, total int, c Census) {
	if in == nil {
		return
	}
	in.Debug.SetProgress(obs.ProgressInfo{
		Done: done, Total: total,
		StatesChecked: c.StatesChecked, Violations: c.Violations,
	})
}

// RenderStats formats the -stats breakdown against the run's wall-clock
// time, or returns "" when -stats was not requested.
func (in *Instrumentation) RenderStats(wall time.Duration) string {
	if in == nil || !in.stats || in.Col == nil {
		return ""
	}
	snap := in.Col.Snapshot()
	return snap.Render(wall)
}

// RenderStatsSnapshot is RenderStats over an explicit snapshot — the
// distributed coordinator's collector never records anything (the workers
// did), so -serve renders the census's merged obs snapshot instead. Still
// gated on -stats; "" when off or snap is nil.
func (in *Instrumentation) RenderStatsSnapshot(snap *obs.Snapshot, wall time.Duration) string {
	if in == nil || !in.stats || snap == nil {
		return ""
	}
	return snap.Render(wall)
}

// Close flushes and closes the journal and shuts the debug listener down,
// reporting the first error.
func (in *Instrumentation) Close() error {
	if in == nil {
		return nil
	}
	var first error
	if err := in.Journal.Close(); err != nil && first == nil {
		first = fmt.Errorf("journal: %w", err)
	}
	if err := in.Debug.Close(); err != nil && first == nil {
		first = fmt.Errorf("debug server: %w", err)
	}
	return first
}
