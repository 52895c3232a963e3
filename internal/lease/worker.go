package lease

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"
)

// Fault-model contract, for every unit family: a worker makes no visible
// progress except by a credited result POST. Dying mid-unit — crash, SIGKILL,
// cancelled context, lost network — just lets the lease expire for
// re-dispatch; the unit is eventually credited exactly once, somewhere, with
// a byte-identical payload, or spent once its dispatch attempts are. While a
// unit runs the worker heartbeats its lease (every TTL/3) so a conservative
// lease never expires under a legitimately long unit, and the engine call
// runs under a watchdog with panic containment: a hung or crashing unit
// becomes a structured error payload, not a dead worker. A coordinator that
// becomes permanently unreachable after the handshake is treated as "run
// over" (it completed and exited, or it crashed and its checkpoint will
// resume): the worker exits cleanly rather than failing a pipeline whose
// state is safe either way. Unreachable at handshake is different — the
// worker never joined — and fails with ErrCoordinatorGone.

// Worker is one worker process's identity and pacing on the wire.
type Worker struct {
	// Addr is the coordinator's host:port; ID names this worker in leases and
	// per-worker stats.
	Addr, ID string
	// DialBudget is the total retry time of each wire call, Timeout the
	// per-unit engine watchdog (negative = none).
	DialBudget, Timeout time.Duration
	Logf                func(format string, args ...any)

	client http.Client
}

// Init fills the defaults: ID hostname-pid, DialBudget DefaultDialBudget,
// Timeout defaultTimeout when zero, Logf a no-op.
func (w *Worker) Init(defaultTimeout time.Duration) {
	if w.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		w.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if w.DialBudget <= 0 {
		w.DialBudget = DefaultDialBudget
	}
	if w.Timeout == 0 {
		w.Timeout = defaultTimeout
	}
	if w.Logf == nil {
		w.Logf = func(string, ...any) {}
	}
}

// Post posts body to path under budget (0 = the dial budget).
func (w *Worker) Post(ctx context.Context, path string, body, out any, budget time.Duration) error {
	if budget <= 0 {
		budget = w.DialBudget
	}
	return PostJSON(ctx, &w.client, "http://"+w.Addr+path, body, out, budget)
}

// RunOutcome classifies how a unit's run ended.
type RunOutcome uint8

const (
	// RunOK: run returned nil; there is a healthy payload to post.
	RunOK RunOutcome = iota
	// RunLost: a heartbeat was refused — the lease expired and was
	// re-dispatched, or the unit is spent. Stop burning compute on a result
	// that would be discarded, and lease on.
	RunLost
	// RunCancelled: the worker's own context was cancelled. Report nothing —
	// the lease expires and the unit re-runs whole elsewhere.
	RunCancelled
	// RunWatchdog: the run outlived the watchdog. One failed attempt.
	RunWatchdog
	// RunFailed: an engine error or a contained panic. One failed attempt.
	RunFailed
)

// RunUnit runs one leased unit under the worker's self-defense layers: a
// watchdog deadline (timeout > 0), panic containment, and lease heartbeats
// every ttl/3. beat posts heartbeat n within budget and reports whether the
// lease was extended; a failed POST (err) stops the heartbeats quietly — the
// result POST or the lease expiry decides — while an explicit refusal means
// the lease is gone and cancels run. The error is run's (or the recovered
// panic's) for every outcome but RunOK.
func RunUnit(ctx context.Context, timeout, ttl time.Duration,
	beat func(ctx context.Context, budget time.Duration, n int) (extended bool, err error),
	run func(ctx context.Context) error) (RunOutcome, error) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	if timeout > 0 {
		var stop context.CancelFunc
		runCtx, stop = context.WithTimeout(runCtx, timeout)
		defer stop()
	}
	interval := ttl / 3
	if interval <= 0 {
		interval = DefaultTTL / 3
	}
	var lost atomic.Bool
	beats := make(chan struct{})
	go func() {
		defer close(beats)
		t := time.NewTicker(interval)
		defer t.Stop()
		for n := 0; ; n++ {
			select {
			case <-runCtx.Done():
				return
			case <-t.C:
			}
			extended, err := beat(runCtx, interval, n)
			if err != nil {
				return
			}
			if !extended {
				lost.Store(true)
				cancel()
				return
			}
		}
	}()
	err := func() (err error) {
		// An engine panic must become a structured error payload, never a
		// dead worker — the coordinator's attempt accounting depends on
		// hearing about failures.
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("engine panic: %v", r)
			}
		}()
		return run(runCtx)
	}()
	cancel()
	<-beats
	switch {
	case err == nil:
		return RunOK, nil
	case lost.Load():
		return RunLost, err
	case ctx.Err() != nil:
		return RunCancelled, err
	case errors.Is(runCtx.Err(), context.DeadlineExceeded):
		return RunWatchdog, err
	default:
		return RunFailed, err
	}
}

// Poll is what one lease request came to.
type Poll uint8

const (
	// PollRun: a unit was granted and checked; the job holds it.
	PollRun Poll = iota
	// PollWait: everything is leased out, or the answer carried a status
	// outside the protocol, which can only be a response corrupted in flight
	// (whatever was actually granted expires or is re-granted). Re-poll after
	// a jittered pause whose cap doubles from waitBase to waitCeil while the
	// waits last: soon after a short wait, a few requests a second in a long
	// one, never a hot loop.
	PollWait
	// PollAgain: the granted unit failed the job's own checks (geometry,
	// checksums) — a corrupt response. Discard it and re-poll at once: the
	// coordinator re-grants the unit this worker still holds, intact.
	PollAgain
	// PollDone: the run is complete, draining, or failed: exit.
	PollDone
)

const waitBase, waitCeil = time.Millisecond, 64 * time.Millisecond

// Job is a unit family's side of the worker loop: how to ask for a unit, keep
// its lease alive, run it, and report it.
type Job interface {
	// Lease asks the coordinator for the next unit; on PollRun the job holds
	// it and ttl is its lease.
	Lease(ctx context.Context) (p Poll, ttl time.Duration, err error)
	// Beat and Run are RunUnit's: one heartbeat for the held unit, and the
	// work itself.
	Beat(ctx context.Context, budget time.Duration, n int) (extended bool, err error)
	Run(ctx context.Context) error
	// Report closes the held unit — for RunOK, RunWatchdog and RunFailed by
	// posting the payload (healthy or error) and logging the credit — and
	// reports whether that credit completed the run. RunLost posts nothing.
	Report(ctx context.Context, o RunOutcome, runErr error) (done bool, err error)
}

// Work drives job until the coordinator reports the run (noun: "campaign",
// "soak") done, ctx is cancelled, or an error is fatal.
func (w *Worker) Work(ctx context.Context, noun string, job Job) error {
	for waits := 0; ; {
		if err := ctx.Err(); err != nil {
			return err
		}
		poll, ttl, err := job.Lease(ctx)
		if errors.Is(err, ErrCoordinatorGone) {
			w.Logf("worker %s: coordinator %s gone; assuming %s over", w.ID, w.Addr, noun)
			return nil
		}
		if err != nil {
			return err
		}
		switch poll {
		case PollDone:
			w.Logf("worker %s: %s done", w.ID, noun)
			return nil
		case PollWait:
			waits++
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(jitter(waitBase, waits, waitCeil)):
			}
			continue
		case PollAgain:
			continue
		}
		waits = 0
		outcome, runErr := RunUnit(ctx, w.Timeout, ttl, job.Beat, job.Run)
		if outcome == RunCancelled {
			return ctx.Err()
		}
		done, err := job.Report(ctx, outcome, runErr)
		if outcome == RunLost {
			w.Logf("worker %s: lease lost mid-run; abandoning", w.ID)
			continue
		}
		if errors.Is(err, ErrCoordinatorGone) {
			w.Logf("worker %s: coordinator %s gone before result; lease will expire elsewhere", w.ID, w.Addr)
			return nil
		}
		if err != nil {
			return err
		}
		if done {
			w.Logf("worker %s: %s done", w.ID, noun)
			return nil
		}
	}
}
