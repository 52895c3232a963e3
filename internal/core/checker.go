package core

import "chipmunk/internal/persist"

// finding builds the violation a failed check reports (nil: none).
func (ck *checker) finding(ctx *CheckContext, f *Finding) *Violation {
	if f == nil {
		return nil
	}
	v := ck.violation(ctx, f.Kind, f.Detail)
	v.Contract = f.Contract
	return v
}

// recoveryReadSet mounts the fence's base — the working image, through the
// crash device with no injector attached (the previous state's may still
// be) — with PM reads recorded, returning the cache lines recovery
// consulted: the Vinter heuristic's input. The undo log takes the mount's
// writes back, also after a panic. A failed mount returns nil (no
// filtering: everything is relevant when recovery itself is broken); a
// panicking mount is contained the same way — this runs during
// enumeration, outside the per-state guard.
func (ck *checker) recoveryReadSet() (rs *persist.ReadSet) {
	defer func() {
		ck.undo.Rollback()
		if recover() != nil {
			rs = nil
		}
	}()
	ck.dev.Reset()
	pm := persist.New(ck.dev)
	reads := persist.NewReadSet()
	pm.Attach(reads)
	if err := ck.cfg.NewFS(pm).Mount(); err != nil {
		return nil
	}
	return reads
}

// violation builds (but does not record) the report for one failed check.
func (ck *checker) violation(ctx *CheckContext, kind ViolationKind, detail string) *Violation {
	return &Violation{
		FS:       ck.caps.Name,
		Workload: ck.w,
		Syscall:  ctx.Sys,
		SysName:  ck.sysName(ctx.Sys),
		Phase:    ctx.Phase,
		// Cloned, not aliased: violations outlive the fence whose arena
		// backs ctx.Subset (see arena.go). Empty subsets stay nil.
		Subset: append([]int(nil), ctx.Subset...),
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
func (ck *checker) report(ctx *CheckContext, kind ViolationKind, detail string) {
	ck.reportViolation(*ck.violation(ctx, kind, detail))
}
