package core

import (
	"fmt"
	"time"

	"chipmunk/internal/obs"
	"chipmunk/internal/persist"
	"chipmunk/internal/pmem"
	"chipmunk/internal/vfs"
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
	fs, f, ct := ck.mount(dev, mountStart)
	if f == nil {
		f = ck.contract.Check(fs, ctx.check())
	}
	return ck.finding(ctx, f), ct
}

// mount mounts the target on the device, closing the mount window and
// opening the check window. A failed mount returns its finding.
func (ck *checker) mount(dev *pmem.Device, mountStart time.Time) (vfs.FS, *Finding, time.Time) {
	fs := ck.cfg.NewFS(persist.New(dev))
	err := fs.Mount()
	ck.obs.ObserveSince(obs.StageMount, mountStart)
	ct := ck.obs.Start()
	if err != nil {
		return nil, &Finding{Kind: VUnmountable, Detail: fmt.Sprintf("mount failed: %v", err)}, ct
	}
	return fs, nil, ct
}

// finding builds the violation a failed check reports (nil: none).
func (ck *checker) finding(ctx crashCtx, f *Finding) *Violation {
	if f == nil {
		return nil
	}
	v := ck.violation(ctx, f.Kind, f.Detail)
	v.Contract = f.Contract
	return v
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
	return &Violation{
		FS:       ck.caps.Name,
		Workload: ck.w,
		Syscall:  ctx.sys,
		SysName:  ck.sysName(ctx.sys),
		Phase:    ctx.phase,
		// Cloned, not aliased: violations outlive the fence whose arena
		// backs ctx.subset (see arena.go). Empty subsets stay nil.
		Subset: append([]int(nil), ctx.subset...),
		Kind:   kind,
		Detail: detail,
	}
}

// sysName renders the implicated call ("" when sys names none).
func (ck *checker) sysName(sys int) string {
	if sys >= 0 && sys < len(ck.w.Ops) {
		return ck.w.Ops[sys].String()
	}
	return ""
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
