package workload

import (
	"fmt"
	"slices"

	"chipmunk/internal/vfs"
)

// Hooks lets the Chipmunk engine observe syscall boundaries: Before fires
// just before op i executes (the engine snapshots the oracle and stamps a
// syscall-begin marker), After fires once it returns. App supplies the
// application instance for workloads with app-level ops (OpKV*).
type Hooks struct {
	Before func(i int, op Op)
	After  func(i int, op Op, err error)
	App    AppFactory
}

// AppInstance is an application running on top of a vfs.FS — the target of
// app-level ops. Exec performs one OpKV* op. Close releases descriptors the
// instance holds; it must NOT flush or sync unsynced state (a Close that
// quietly persisted buffers would mask missing-sync bugs the contract
// checker exists to catch).
type AppInstance interface {
	Exec(op Op) error
	Close() error
}

// AppFactory opens (or recovers) an application instance on fs.
type AppFactory func(fs vfs.FS) (AppInstance, error)

// Result records the outcome of one op.
type Result struct {
	Op  Op
	Err error
}

// Run executes w against fs, resolving FD slots and auto-open semantics.
// Op-level errors are recorded, not fatal: workloads may legitimately
// contain failing calls (the fuzzer generates them), and the oracle must
// fail the same way. Harness-level failures (slot misuse on a path with no
// file) surface as op errors too.
func Run(fs vfs.FS, w Workload, hooks Hooks) []Result {
	return Resume(fs, w, make([]Result, 0, len(w.Ops)), hooks)
}

// Resume continues a run of w on fs after its first len(done) ops, whose
// results done holds, and appends the rest. Those ops must leave no FD slot
// open (the models' Fork refuses one) and start no application
// (w.Forkable(len(done))).
func Resume(fs vfs.FS, w Workload, done []Result, hooks Hooks) []Result {
	slots := map[int]vfs.FD{}
	slotPath := map[int]string{}
	results := done

	var app AppInstance
	var appErr error
	for i := len(done); i < len(w.Ops); i++ {
		op := w.Ops[i]
		if hooks.Before != nil {
			hooks.Before(i, op)
		}
		var err error
		if op.Kind.AppLevel() {
			// Lazily open the app at the first app-level op so pure-syscall
			// workloads pay nothing. A missing factory or failed open is an
			// op error (sticky), not fatal: the oracle fails identically.
			if app == nil && appErr == nil {
				if hooks.App == nil {
					appErr = fmt.Errorf("workload: app-level op with no AppFactory")
				} else if app, appErr = hooks.App(fs); appErr != nil {
					appErr = fmt.Errorf("workload: opening app: %w", appErr)
				}
			}
			if appErr != nil {
				err = appErr
			} else {
				err = app.Exec(op)
			}
		} else {
			err = runOp(fs, op, slots, slotPath)
		}
		results = append(results, Result{Op: op, Err: err})
		if hooks.After != nil {
			hooks.After(i, op, err)
		}
	}
	if app != nil {
		app.Close()
	}
	// Close any slots left open so Unmount sees no busy files.
	for s, fd := range slots {
		fs.Close(fd)
		delete(slots, s)
	}
	return results
}

func runOp(fs vfs.FS, op Op, slots map[int]vfs.FD, slotPath map[int]string) error {
	switch op.Kind {
	case OpCreat:
		fd, err := fs.Create(op.Path)
		if err != nil {
			return err
		}
		if op.FDSlot >= 0 {
			closeSlot(fs, slots, op.FDSlot)
			slots[op.FDSlot] = fd
			slotPath[op.FDSlot] = op.Path
			return nil
		}
		return fs.Close(fd)

	case OpOpen:
		fd, err := fs.Open(op.Path)
		if err != nil {
			return err
		}
		slot := op.FDSlot
		if slot < 0 {
			slot = 0
		}
		closeSlot(fs, slots, slot)
		slots[slot] = fd
		slotPath[slot] = op.Path
		return nil

	case OpClose:
		fd, ok := slots[op.FDSlot]
		if !ok {
			return vfs.ErrBadFD
		}
		delete(slots, op.FDSlot)
		delete(slotPath, op.FDSlot)
		return fs.Close(fd)

	case OpMkdir:
		return fs.Mkdir(op.Path)
	case OpRmdir:
		return fs.Rmdir(op.Path)
	case OpLink:
		return fs.Link(op.Path, op.Path2)
	case OpUnlink:
		return fs.Unlink(op.Path)
	case OpRename:
		return fs.Rename(op.Path, op.Path2)
	case OpTruncate:
		return fs.Truncate(op.Path, op.Size)

	case OpRemove:
		st, err := fs.Stat(op.Path)
		if err != nil {
			return err
		}
		if st.Type == vfs.TypeDir {
			return fs.Rmdir(op.Path)
		}
		return fs.Unlink(op.Path)

	case OpFalloc:
		return withFD(fs, op, slots, func(fd vfs.FD) error {
			return fs.Fallocate(fd, op.Off, op.Size)
		})

	case OpWrite:
		return withFD(fs, op, slots, func(fd vfs.FD) error {
			path := op.Path
			if p, ok := slotPath[op.FDSlot]; ok && op.FDSlot >= 0 {
				path = p
			}
			st, err := fs.Stat(path)
			if err != nil {
				return err
			}
			_, err = fs.Pwrite(fd, Data(op.Seed, op.Size), st.Size)
			return err
		})

	case OpPwrite:
		return withFD(fs, op, slots, func(fd vfs.FD) error {
			_, err := fs.Pwrite(fd, Data(op.Seed, op.Size), op.Off)
			return err
		})

	case OpFsync, OpFdatasync:
		return withFD(fs, op, slots, fs.Fsync)

	case OpSync:
		return fs.Sync()

	case OpSetxattr:
		xfs, ok := fs.(vfs.XattrFS)
		if !ok {
			return vfs.ErrInvalid
		}
		return xfs.Setxattr(op.Path, op.Path2, Data(op.Seed, 16))

	case OpRemovexattr:
		xfs, ok := fs.(vfs.XattrFS)
		if !ok {
			return vfs.ErrInvalid
		}
		return xfs.Removexattr(op.Path, op.Path2)

	default:
		return fmt.Errorf("workload: unknown op kind %v", op.Kind)
	}
}

// withFD resolves the op's FD: slot if FDSlot >= 0, else auto-open Path.
func withFD(fs vfs.FS, op Op, slots map[int]vfs.FD, fn func(vfs.FD) error) error {
	if op.FDSlot >= 0 {
		fd, ok := slots[op.FDSlot]
		if !ok {
			return vfs.ErrBadFD
		}
		return fn(fd)
	}
	fd, err := fs.Open(op.Path)
	if err != nil {
		return err
	}
	opErr := fn(fd)
	if cerr := fs.Close(fd); opErr == nil {
		opErr = cerr
	}
	return opErr
}

func closeSlot(fs vfs.FS, slots map[int]vfs.FD, slot int) {
	if fd, ok := slots[slot]; ok {
		fs.Close(fd)
		delete(slots, slot)
	}
}

// Forkable reports whether a run of w may fork after its first k ops: none
// is app-level, since Resume starts no application. Open descriptors are
// the models' to refuse (vfs.Forker).
func (w Workload) Forkable(k int) bool {
	return !slices.ContainsFunc(w.Ops[:k], func(op Op) bool { return op.Kind.AppLevel() })
}
