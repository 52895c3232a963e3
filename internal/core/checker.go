package core

import (
	"fmt"
	"time"

	"chipmunk/internal/obs"
	"chipmunk/internal/persist"
	"chipmunk/internal/pmem"
)

// checkState mounts the target file system on one crash state and applies
// the run's correctness contract (§3.3): mountability is classified here —
// recovery itself failing is a bug no contract needs to see — and every
// mountable state is handed to the pluggable Checker (the FS-oracle
// comparison by default, an application contract like the KV store's when
// Config.Checker says so). The first failed check produces the state's
// violation (nil when the state is legal). The device is this call's
// private, just-rebooted view of the crash image (optionally carrying an
// attached fault injector), so checkState is goroutine-safe; it normally
// runs under the sandbox's guard (sandbox.go), which converts guest panics,
// media faults, and hangs into classified outcomes.
//
// The stage windows tile so the -stats sum tracks wall-clock: mountStart is
// an already-open mount window (opened by the caller before arming the
// guard), and the returned checkStart is the open check window, closed by
// the caller after the lease is settled and the image restored. Both are
// the zero time when observability is off.
func (ck *checker) checkState(dev *pmem.Device, ctx crashCtx, mountStart time.Time) (v *Violation, checkStart time.Time) {
	fs := ck.cfg.NewFS(persist.New(dev))

	err := fs.Mount()
	ck.obs.ObserveSince(obs.StageMount, mountStart)
	ct := ck.obs.Start()
	if err != nil {
		return ck.violation(ctx, VUnmountable, fmt.Sprintf("mount failed: %v", err)), ct
	}

	if f := ck.contract.Check(fs, ctx.check()); f != nil {
		v := ck.violation(ctx, f.Kind, f.Detail)
		v.Contract = f.Contract
		return v, ct
	}
	return nil, ct
}

// recoveryReadSet mounts the base image once with PM reads recorded,
// returning the cache lines recovery consulted — the Vinter heuristic's
// input. A failed mount returns nil (no filtering: everything is relevant
// when recovery itself is broken); a panicking mount is contained the same
// way — this runs during enumeration, outside the per-state guard.
func (ck *checker) recoveryReadSet(img []byte) (rs *persist.ReadSet) {
	defer func() {
		if recover() != nil {
			rs = nil
		}
	}()
	dev := pmem.FromImage(img)
	pm := persist.New(dev)
	reads := persist.NewReadSet()
	pm.Attach(reads)
	fs := ck.cfg.NewFS(pm)
	if err := fs.Mount(); err != nil {
		return nil
	}
	return reads
}

// violation builds (but does not record) the report for one failed check.
func (ck *checker) violation(ctx crashCtx, kind ViolationKind, detail string) *Violation {
	sysName := ""
	if ctx.sys >= 0 && ctx.sys < len(ck.w.Ops) {
		sysName = ck.w.Ops[ctx.sys].String()
	}
	return &Violation{
		FS:       ck.caps.Name,
		Workload: ck.w,
		Syscall:  ctx.sys,
		SysName:  sysName,
		Phase:    ctx.phase,
		// Cloned, not aliased: violations outlive the fence whose arena
		// backs ctx.subset (see arena.go). Empty subsets stay nil.
		Subset: append([]int(nil), ctx.subset...),
		Kind:   kind,
		Detail: detail,
	}
}

// reportViolation records a violation (bounded; overflow is counted).
// Owner-only, so violations land in subset-rank order.
func (ck *checker) reportViolation(v Violation) {
	if len(ck.res.Violations) >= maxViolationsPerRun {
		ck.res.SuppressedViolations++
		return
	}
	ck.res.Violations = append(ck.res.Violations, v)
}

// report records a violation for the given crash context (bounded).
func (ck *checker) report(ctx crashCtx, kind ViolationKind, detail string) {
	ck.reportViolation(*ck.violation(ctx, kind, detail))
}
