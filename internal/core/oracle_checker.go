package core

import (
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"sync/atomic"
	"unsafe"

	"chipmunk/internal/obs"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

// oracleChecker is the default contract: the §3.3 FS-oracle comparison that
// was hardwired into the engine before the Checker seam existed. Its
// verdicts are byte-identical to the pre-seam engine (pinned by
// TestDefaultCheckerMatchesLegacy in internal/harness): readability,
// synchrony for post-syscall states, atomicity for mid-syscall states, and
// the usability probe, in that order.
type oracleChecker struct {
	env RunEnv

	// snaps holds each op's oracle snapshot, built by the first Judge at a
	// crash point inside the op and never replaced, so concurrent — and
	// even abandoned — judges of that point read one immutable value.
	snaps []atomic.Pointer[oracleSnapshot]
}

// oracleSnapshot is the frozen oracle-visible view of one mid-syscall crash
// point, shared by every crash state checked at it: the sorted union of the
// pre- and post-op oracle paths with the per-path facts checkAtomic needs —
// presence, file states, whether the op modifies the path, and whether a
// pre/post byte mix is legal there. All fields are read-only after
// buildSnapshot returns (the invariant concurrent judges rely on);
// per-state data stays in checkAtomic's locals.
type oracleSnapshot struct {
	sys           int
	paths         []string
	index         map[string]int
	pre, post     []vfs.FileState
	inPre, inPost []bool
	modified      []bool
	mixOK         []bool
}

// NewOracleChecker builds the default FS-oracle contract — what
// Config.Checker == nil resolves to.
func NewOracleChecker(env RunEnv) Checker {
	return &oracleChecker{env: env, snaps: make([]atomic.Pointer[oracleSnapshot], len(env.OracleStates))}
}

func (oc *oracleChecker) Name() string { return "fs-oracle" }

// stateSeed keys the digests Observe interns recovered states by.
var stateSeed = maphash.MakeSeed()

// oracleObservation is the recovered state, or why it could not be read.
type oracleObservation struct {
	st     vfs.State // nil: unreadable
	failed *Finding
	bytes  int
}

func (o *oracleObservation) Bytes() int { return o.bytes }

// Observe implements Checker: a capture identical to one in has interned
// is answered with that observation; any other is copied out of the run's
// capture storage (RunEnv.Scratch), directory entries into one block, file
// contents interned, and interned itself.
func (oc *oracleChecker) Observe(fs vfs.FS, in *Interner) Observation {
	scr := oc.env.Scratch.take()
	if scr != nil {
		defer oc.env.Scratch.put()
	}
	st, err := vfs.CaptureWith(fs, scr)
	if err != nil {
		f := &Finding{Kind: VUnreadable, Detail: fmt.Sprintf("reading recovered state failed: %v", err)}
		return &oracleObservation{failed: f, bytes: len(f.Detail)}
	}
	if in == nil {
		return copyObservation(st, nil)
	}
	sum := st.Digest(stateSeed)
	if o := in.state(sum, st); o != nil {
		oc.env.Obs.Inc(obs.CtrObservationsShared)
		return o
	}
	o := copyObservation(st, in)
	in.keepState(sum, o)
	return o
}

// copyObservation copies st out of its scratch, file contents through in.
func copyObservation(st vfs.State, in *Interner) *oracleObservation {
	names := 0
	for _, f := range st {
		names += len(f.Entries)
	}
	block := make([]string, 0, names)
	o := &oracleObservation{st: make(vfs.State, len(st))}
	for p, f := range st {
		f.Data = in.Bytes(f.Data)
		if f.Entries != nil {
			block = append(block, f.Entries...)
			f.Entries = block[len(block)-len(f.Entries) : len(block) : len(block)]
		}
		o.st[p] = f
		o.bytes += int(unsafe.Sizeof(f)) + len(p) + 16*(len(f.Entries)+len(f.Xattrs))
	}
	return o
}

// Judge implements Checker: readability, then synchrony after a call or
// atomicity inside one.
func (oc *oracleChecker) Judge(o Observation, cctx *CheckContext) *Finding {
	ob := o.(*oracleObservation)
	if ob.failed != nil {
		return ob.failed
	}
	switch cctx.Phase {
	case PhasePost:
		if cctx.AckedOps >= 0 && cctx.AckedOps < len(oc.env.OracleStates) {
			if d := vfs.Diff(ob.st, oc.env.OracleStates[cctx.AckedOps]); d != "" {
				return &Finding{Kind: VSynchrony, Detail: d}
			}
		}
	case PhaseMid:
		if detail := oc.checkAtomic(ob.st, cctx); detail != "" {
			return &Finding{Kind: VAtomicity, Detail: detail}
		}
	}
	return nil
}

// Probe implements Checker: the usability probe.
func (oc *oracleChecker) Probe(fs vfs.FS, o Observation) *Finding {
	if detail := usability(fs, o.(*oracleObservation).st); detail != "" {
		return &Finding{Kind: VUsability, Detail: detail}
	}
	return nil
}

// snapshotFor returns the crash point's snapshot, building it if this is
// the point's first judgement. A judge that loses the race to store it
// uses its own, identical copy.
func (oc *oracleChecker) snapshotFor(cctx *CheckContext) *oracleSnapshot {
	p := &oc.snaps[cctx.Sys]
	if s := p.Load(); s != nil {
		oc.env.Obs.Inc(obs.CtrOracleSnapshotHits)
		return s
	}
	s := oc.buildSnapshot(cctx.Sys)
	p.CompareAndSwap(nil, s)
	return s
}

// buildSnapshot derives one syscall's frozen oracle view: the sorted
// pre ∪ post path union and the per-path modified/mix facts, computed once
// instead of once per crash state. The caller guarantees sys is in range.
func (oc *oracleChecker) buildSnapshot(sys int) *oracleSnapshot {
	pre := oc.env.OracleStates[sys]
	post := oc.env.OracleStates[sys+1]

	index := make(map[string]int, len(pre)+len(post))
	paths := make([]string, 0, len(pre)+len(post))
	for p := range pre {
		if _, ok := index[p]; !ok {
			index[p] = 0
			paths = append(paths, p)
		}
	}
	for p := range post {
		if _, ok := index[p]; !ok {
			index[p] = 0
			paths = append(paths, p)
		}
	}
	slices.Sort(paths)

	n := len(paths)
	snap := &oracleSnapshot{
		sys: sys, paths: paths, index: index,
		pre: make([]vfs.FileState, n), post: make([]vfs.FileState, n),
		inPre: make([]bool, n), inPost: make([]bool, n),
		modified: make([]bool, n), mixOK: make([]bool, n),
	}
	mixCtx := &CheckContext{Phase: PhaseMid, Sys: sys}
	for i, p := range paths {
		index[p] = i
		preF, inPre := pre[p]
		postF, inPost := post[p]
		snap.pre[i], snap.inPre[i] = preF, inPre
		snap.post[i], snap.inPost[i] = postF, inPost
		snap.modified[i] = inPre != inPost || (inPre && inPost && !preF.Equal(postF))
		snap.mixOK[i] = oc.mixAllowed(mixCtx, p)
	}
	return snap
}

// checkAtomic validates a mid-syscall crash state: every file the call
// modifies must match either the pre-call or post-call oracle version, all
// of them the same version; untouched files must be untouched (§3.3
// "Testing crash states"). The per-path oracle facts come from the crash
// point's shared snapshot; only the crash state itself is examined per call.
func (oc *oracleChecker) checkAtomic(crash vfs.State, cctx *CheckContext) string {
	if cctx.Sys < 0 || cctx.Sys+1 >= len(oc.env.OracleStates) {
		return ""
	}
	snap := oc.snapshotFor(cctx)

	// A crash-only path — present in neither oracle state — is always an
	// untouched-presence violation. Track the first in sort order so the
	// verdict is the one the legacy sorted pre ∪ post ∪ crash walk returned:
	// it fires exactly when the walk would have reached that path before
	// any other violation.
	extra := ""
	for p := range crash {
		if _, ok := snap.index[p]; !ok && (extra == "" || p < extra) {
			extra = p
		}
	}

	var sawPre, sawPost []string
	for i, p := range snap.paths {
		if extra != "" && extra < p {
			return fmt.Sprintf("%s: untouched file presence changed (crash has it: %v)", extra, true)
		}
		crashF, inCrash := crash[p]

		if !snap.modified[i] {
			// Untouched by this call: must match exactly (or be equally
			// absent).
			if snap.inPre[i] != inCrash {
				return fmt.Sprintf("%s: untouched file presence changed (crash has it: %v)", p, inCrash)
			}
			if snap.inPre[i] && !snap.pre[i].Equal(crashF) {
				return fmt.Sprintf("%s: untouched file changed\n  crash:  %s\n  oracle: %s",
					p, crashF.Describe(), snap.pre[i].Describe())
			}
			continue
		}

		matchPre := snap.inPre[i] == inCrash && (!snap.inPre[i] || snap.pre[i].Equal(crashF))
		matchPost := snap.inPost[i] == inCrash && (!snap.inPost[i] || snap.post[i].Equal(crashF))
		switch {
		case matchPre:
			sawPre = append(sawPre, p)
		case matchPost:
			sawPost = append(sawPost, p)
		case snap.mixOK[i] && inCrash && byteMixOK(snap.pre[i], snap.post[i], crashF, snap.inPre[i], snap.inPost[i]):
			// A torn data write on a system without atomic writes: legal,
			// and consistent with either version.
		default:
			detail := fmt.Sprintf("%s: matches neither pre- nor post-op state", p)
			if inCrash {
				detail += "\n  crash:  " + crashF.Describe()
			} else {
				detail += "\n  crash:  (missing)"
			}
			if snap.inPre[i] {
				detail += "\n  pre:    " + snap.pre[i].Describe()
			} else {
				detail += "\n  pre:    (absent)"
			}
			if snap.inPost[i] {
				detail += "\n  post:   " + snap.post[i].Describe()
			} else {
				detail += "\n  post:   (absent)"
			}
			return detail
		}
	}
	if extra != "" {
		return fmt.Sprintf("%s: untouched file presence changed (crash has it: %v)", extra, true)
	}
	if len(sawPre) > 0 && len(sawPost) > 0 {
		return fmt.Sprintf("operation not atomic: %s at pre-op state while %s at post-op state",
			strings.Join(sawPre, ","), strings.Join(sawPost, ","))
	}
	return ""
}

// mixAllowed reports whether path may legally hold a mix of old and new
// bytes in this crash state: the system does not guarantee atomic data
// writes and path names the file the in-flight write/fallocate targets —
// either directly or as a hard-link alias (a torn write is visible under
// every name of the inode).
func (oc *oracleChecker) mixAllowed(cctx *CheckContext, path string) bool {
	if oc.env.Caps.AtomicWrite {
		return false
	}
	if cctx.Sys < 0 || cctx.Sys >= len(oc.env.Workload.Ops) {
		return false
	}
	op := oc.env.Workload.Ops[cctx.Sys]
	switch op.Kind {
	case workload.OpWrite, workload.OpPwrite, workload.OpFalloc:
	case workload.OpKVPut, workload.OpKVDel, workload.OpKVSync:
		// App-level mutation: the store writes through descriptors the op
		// does not record, so any regular file may legally be torn
		// (conservative).
		return true
	default:
		return false
	}
	if op.FDSlot >= 0 {
		// Descriptor-based write: the target path is not recorded in the
		// op, so any regular file may legally be torn (conservative).
		return true
	}
	target := vfs.Clean(op.Path)
	if target == path {
		return true
	}
	if cctx.Sys+1 < len(oc.env.OracleStates) {
		if oc.env.OracleStates[cctx.Sys].SameInode(target, path) ||
			oc.env.OracleStates[cctx.Sys+1].SameInode(target, path) {
			return true
		}
	}
	return false
}

// byteMixOK accepts a torn data write: the size is the old or the new one,
// the link count unchanged, and every byte matches the old or the new
// content (bytes beyond a version's size count as zero).
func byteMixOK(pre, post, crash vfs.FileState, inPre, inPost bool) bool {
	if !inPost || crash.Type != vfs.TypeRegular || post.Type != vfs.TypeRegular {
		return false
	}
	if !inPre {
		// File created by this op: old content is "absent"; a torn state
		// still has the file with partial data.
		pre = vfs.FileState{Type: vfs.TypeRegular, Nlink: post.Nlink}
	}
	if pre.Type != vfs.TypeRegular {
		return false
	}
	if crash.Size != pre.Size && crash.Size != post.Size {
		return false
	}
	if crash.Nlink != post.Nlink {
		return false
	}
	byteAt := func(f vfs.FileState, i int64) byte {
		if i < int64(len(f.Data)) {
			return f.Data[i]
		}
		return 0
	}
	for i := int64(0); i < crash.Size; i++ {
		b := crash.Data[i]
		if b != byteAt(pre, i) && b != byteAt(post, i) {
			return false
		}
	}
	return true
}

// usability validates that the recovered file system is actually usable
// (§3.3): create a file in every directory, write and read it back, then
// delete every file and directory. The mutations land on this state's
// private device copy.
func usability(fs vfs.FS, st vfs.State) string {
	var dirs, files []string
	for p, f := range st {
		if f.Type == vfs.TypeDir {
			dirs = append(dirs, p)
		} else {
			files = append(files, p)
		}
	}
	slices.Sort(dirs)

	probe := "chipmunk_probe"
	// One buffer per call: the bytes every probe file is written from,
	// then the read-back.
	data := make([]byte, 10)
	copy(data, "probe")
	data, buf := data[:5:5], data[5:]
	for _, d := range dirs {
		path := vfs.Join(d, probe)
		fd, err := fs.Create(path)
		if err != nil {
			return fmt.Sprintf("creating %s failed: %v", path, err)
		}
		if _, err := fs.Pwrite(fd, data, 0); err != nil {
			fs.Close(fd)
			return fmt.Sprintf("writing %s failed: %v", path, err)
		}
		if _, err := fs.Pread(fd, buf, 0); err != nil {
			fs.Close(fd)
			return fmt.Sprintf("reading %s back failed: %v", path, err)
		}
		if string(buf) != "probe" {
			fs.Close(fd)
			return fmt.Sprintf("read-back of %s returned %q", path, buf)
		}
		if err := fs.Close(fd); err != nil {
			return fmt.Sprintf("closing %s failed: %v", path, err)
		}
		files = append(files, path)
	}

	slices.Sort(files)
	for _, p := range files {
		if err := fs.Unlink(p); err != nil {
			return fmt.Sprintf("deleting %s failed: %v", p, err)
		}
	}
	// Directories deepest-first; the root stays.
	slices.SortFunc(dirs, func(a, b string) int { return len(b) - len(a) })
	for _, d := range dirs {
		if d == "/" {
			continue
		}
		if err := fs.Rmdir(d); err != nil {
			return fmt.Sprintf("removing directory %s failed: %v", d, err)
		}
	}
	return ""
}
