package core

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/obs"
	"chipmunk/internal/persist"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

// The takeover tests drive the supervisor's half of the sandbox protocol
// (sandbox.go): a guest phase that outlives its deadline is abandoned, the
// walk resumes on a replacement runner exactly where it stood, and whatever
// the abandoned goroutine does afterwards changes nothing. All of them are
// meant to run under -race, which is what checks the "touches nothing" half.

const takeoverTimeout = 40 * time.Millisecond

// takeoverWorkload needs a fence wide enough for the worker pool to engage
// with more fences after it.
func takeoverWorkload() workload.Workload { return heavyWorkload() }

// stallChecker wraps the run's real contract and stalls inside the guest
// phase of one crash state, named by its coordinates — a Mount ordinal would
// name a different state for every worker count. hold == 0 hangs until
// release is closed (test clean-up); otherwise the guest is slow, not hung,
// and returns after hold. returned is closed when the stalled Check is back.
// transient stalls only the first attempt at the state, so a retry succeeds.
type stallChecker struct {
	Checker
	fence, rank int
	hold        time.Duration
	transient   bool
	attempts    atomic.Int32
	release     chan struct{}
	returned    chan struct{}
	once        sync.Once
}

func (s *stallChecker) Check(fs vfs.FS, cctx *CheckContext) *Finding {
	// The real check runs first and the stall last, so nothing after the
	// stall synchronizes with another goroutine (the oracle checker's
	// sync.Pool would): the race detector then sees the abandoned runner's
	// way out with no accidental happens-before edge to hide behind.
	f := s.Checker.Check(fs, cctx)
	if cctx.Fence == s.fence && cctx.Rank == s.rank && (s.attempts.Add(1) == 1 || !s.transient) {
		if s.hold > 0 {
			time.Sleep(s.hold)
		} else {
			<-s.release
		}
		s.once.Do(func() { close(s.returned) })
	}
	return f
}

func (s *stallChecker) PrepareCrashPoint(cctx *CheckContext) {
	s.Checker.(CrashPointPreparer).PrepareCrashPoint(cctx)
}

// stallAt returns a Config.Checker factory stalling at (fence, rank), and
// the stall's handle. A hang is released when the test ends.
func stallAt(t *testing.T, fence, rank int, hold time.Duration) (CheckerFactory, *stallChecker) {
	s := &stallChecker{fence: fence, rank: rank, hold: hold,
		release: make(chan struct{}), returned: make(chan struct{})}
	t.Cleanup(func() { close(s.release) })
	return func(env RunEnv) Checker {
		s.Checker = NewOracleChecker(env)
		return s
	}, s
}

// journaled turns journal, spans and metrics on in cfg and returns a reader
// for the journal's events, in emission order.
func journaled(t *testing.T, cfg Config) (Config, func() []obs.Event) {
	t.Helper()
	var buf bytes.Buffer
	j := obs.NewJournal(&buf)
	cfg.Journal, cfg.Tracer, cfg.Obs = j, obs.NewTracer(j, 0, 0), obs.New()
	return cfg, func() []obs.Event {
		t.Helper()
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
		events, skipped, err := obs.ReadJournal(&buf)
		if err != nil || skipped != 0 {
			t.Fatalf("journal read: err=%v skipped=%d", err, skipped)
		}
		return events
	}
}

// journaledRun runs w journaled and returns the result with the events.
func journaledRun(t *testing.T, cfg Config, w workload.Workload) (*Result, []obs.Event) {
	t.Helper()
	cfg, events := journaled(t, cfg)
	return mustRun(t, cfg, w), events()
}

// stallTarget picks the state the takeover tests stall: rank 1 of the first
// fence with a state on either side of it, with fences still to come.
func stallTarget(t *testing.T, healthy []obs.Event) (fence, rank int) {
	t.Helper()
	var fences []obs.Event
	for _, e := range healthy {
		if e.Type == "fence" {
			fences = append(fences, e)
		}
	}
	for _, e := range fences[:len(fences)-1] {
		if e.States >= 3 {
			return e.Fence, 1
		}
	}
	t.Fatal("no mid-run fence with enough states; test workload too small")
	return 0, 0
}

// keysWithout renders events as canonical keys in emission order, leaving out
// the stalled state's own events and the run-level totals they feed into.
func keysWithout(events []obs.Event, fence, rank int) []string {
	var keys []string
	for _, e := range events {
		own := (e.Type == "violation" || e.Type == "quarantine") && e.Fence == fence && e.Rank == rank
		if own || e.Type == "workload" || e.Name == "workload" {
			continue
		}
		keys = append(keys, e.CanonicalKey())
	}
	return keys
}

// checkTakenOver asserts a run that stalled at (fence, rank) equals the
// healthy run except for that one state: it is VTimeout with one ledger
// entry, every other state was checked once and in order, and exactly one
// runner and one image were given up.
func checkTakenOver(t *testing.T, name string, healthy, res *Result, hEvents, events []obs.Event, fence, rank int) {
	t.Helper()
	if res.StatesChecked != healthy.StatesChecked || res.StatesDeduped != healthy.StatesDeduped ||
		res.Fences != healthy.Fences {
		t.Errorf("%s: accounting diverged: %d/%d/%d states/deduped/fences, healthy %d/%d/%d", name,
			res.StatesChecked, res.StatesDeduped, res.Fences,
			healthy.StatesChecked, healthy.StatesDeduped, healthy.Fences)
	}
	if len(res.Quarantined) != 1 {
		t.Fatalf("%s: %d ledger entries, want 1: %v", name, len(res.Quarantined), res.Quarantined)
	}
	q := res.Quarantined[0]
	if q.Fence != fence || q.Rank != rank || q.Kind != VTimeout || q.Attempts != 1 {
		t.Errorf("%s: ledger entry %v, want VTimeout at fence %d rank %d after 1 attempt", name, q, fence, rank)
	}
	timeouts := 0
	for _, v := range res.Violations {
		if v.Kind == VTimeout {
			timeouts++
		}
	}
	if timeouts != 1 {
		t.Errorf("%s: %d VTimeout violations, want 1", name, timeouts)
	}

	got, want := keysWithout(events, fence, rank), keysWithout(hEvents, fence, rank)
	if len(got) != len(want) {
		t.Fatalf("%s: %d events besides the stalled state's, healthy run has %d", name, len(got), len(want))
	}
	seen := map[string]bool{}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d differs from the healthy run's\n got: %s\nwant: %s", name, i, got[i], want[i])
		}
		if seen[got[i]] {
			t.Errorf("%s: event emitted twice: %s", name, got[i])
		}
		seen[got[i]] = true
	}

	if n := res.Obs.Count(obs.CtrSandboxRunners); n != 2 {
		t.Errorf("%s: %d runners started, want 2 (the run's, and the takeover's)", name, n)
	}
	if n := res.Obs.Count(obs.CtrImagesRetired); n != 1 {
		t.Errorf("%s: %d images retired, want 1", name, n)
	}
}

// sameVerdicts asserts two runs reported identical violation lists and
// quarantine ledgers.
func sameVerdicts(t *testing.T, name string, a, b *Result) {
	t.Helper()
	if len(a.Violations) != len(b.Violations) || len(a.Quarantined) != len(b.Quarantined) {
		t.Fatalf("%s: %d violations / %d ledger entries vs %d / %d", name,
			len(a.Violations), len(a.Quarantined), len(b.Violations), len(b.Quarantined))
	}
	for i := range a.Violations {
		if a.Violations[i].String() != b.Violations[i].String() {
			t.Errorf("%s: violation %d differs\n%s\n%s", name, i, a.Violations[i], b.Violations[i])
		}
	}
	for i := range a.Quarantined {
		if a.Quarantined[i].String() != b.Quarantined[i].String() {
			t.Errorf("%s: ledger entry %d differs\n%s\n%s", name, i, a.Quarantined[i], b.Quarantined[i])
		}
	}
}

// TestTakeoverResumesAtCursor: a guest that hangs in one mid-run state costs
// that state and nothing else.
func TestTakeoverResumesAtCursor(t *testing.T) {
	w := takeoverWorkload()
	base := Config{NewFS: novaFS(bugs.AllSet()), CheckTimeout: takeoverTimeout, CheckRetries: -1}
	healthy, hEvents := journaledRun(t, base, w)
	if !healthy.Buggy() {
		t.Fatal("healthy run found no violations; the order comparison needs some")
	}
	fence, rank := stallTarget(t, hEvents)

	cfg := base
	cfg.Checker, _ = stallAt(t, fence, rank, 0)
	res, events := journaledRun(t, cfg, w)
	checkTakenOver(t, "hung guest", healthy, res, hEvents, events, fence, rank)
}

// TestTakeoverLateGuestChangesNothing: a guest that is slow, not hung,
// returns long after its runner was abandoned. It must find its lease lost
// and leave without touching the checker, the result or the journal: the
// outcome is the hung guest's, and the race detector watches the way out.
func TestTakeoverLateGuestChangesNothing(t *testing.T) {
	w := takeoverWorkload()
	base := Config{NewFS: novaFS(bugs.AllSet()), CheckTimeout: takeoverTimeout, CheckRetries: -1}
	healthy, hEvents := journaledRun(t, base, w)
	fence, rank := stallTarget(t, hEvents)

	hung := base
	hung.Checker, _ = stallAt(t, fence, rank, 0)
	hungRes, _ := journaledRun(t, hung, w)

	slow := base
	var stall *stallChecker
	slow.Checker, stall = stallAt(t, fence, rank, 3*takeoverTimeout)
	slow, readEvents := journaled(t, slow)
	goroutines := runtime.NumGoroutine()
	res := mustRun(t, slow, w)
	// Let the late guest unwind all the way before doing anything else, even
	// parsing the journal: the race detector keeps only a short history per
	// goroutine, so the supervisor's accesses must still be fresh when the
	// late goroutine makes its own. Its exit is not an event anything
	// signals, hence the poll.
	<-stall.returned
	for patience := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(patience) {
			t.Fatal("the late guest's goroutine never exited")
		}
		time.Sleep(time.Millisecond)
	}
	// A further run recycles the slow run's pooled buffers and overwrites
	// them: had the late guest still read one, this is where it shows.
	again := mustRun(t, base, w)
	sameVerdicts(t, "healthy rerun", healthy, again)
	checkTakenOver(t, "slow guest", healthy, res, hEvents, readEvents(), fence, rank)
	sameVerdicts(t, "slow vs hung", hungRes, res)
}

// signalHangFS hangs forever in ReadDir like hangReadDirFS, announcing the
// first hang so a test can act while the check is provably stuck.
type signalHangFS struct {
	vfs.FS
	hanging chan struct{}
	once    *sync.Once
}

func (f signalHangFS) ReadDir(string) ([]vfs.DirEnt, error) {
	f.once.Do(func() { close(f.hanging) })
	select {}
}

// TestTakeoverCancelDuringHungCheck: cancelling while a guest phase hangs
// abandons it on the spot — RunContext returns ctx.Err() well inside one
// deadline instead of waiting the deadline out.
func TestTakeoverCancelDuringHungCheck(t *testing.T) {
	const deadline = 5 * time.Second
	hanging, once := make(chan struct{}), new(sync.Once)
	inner := novaFS(bugs.None())
	cfg := Config{
		NewFS: func(pm *persist.PM) vfs.FS {
			return signalHangFS{inner(pm), hanging, once}
		},
		CheckTimeout: deadline,
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, cfg, mixedWorkload())
		errc <- err
	}()
	<-hanging
	cancelled := time.Now()
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if waited := time.Since(cancelled); waited >= deadline {
		t.Errorf("cancel took %v, a whole %v deadline", waited, deadline)
	}
}

// countedPanicFS panics on every Mount and announces the n-th.
type countedPanicFS struct {
	vfs.FS
	mounts *atomic.Int32
	n      int32
	nth    chan struct{}
}

func (f countedPanicFS) Mount() error {
	if f.mounts.Add(1) == f.n {
		close(f.nth)
	}
	panic("injected mount panic")
}

// TestRetryBackoffHonoursCancel: the retry backoff (1ms, x4 per retry) must
// not be slept out once the run is cancelled. The sixth failed attempt is
// followed by a 1024ms backoff; cancelling there has to end the run at once.
func TestRetryBackoffHonoursCancel(t *testing.T) {
	mounts, nth := new(atomic.Int32), make(chan struct{})
	inner := novaFS(bugs.None())
	cfg := Config{
		NewFS:        func(pm *persist.PM) vfs.FS { return countedPanicFS{inner(pm), mounts, 6, nth} },
		CheckRetries: 8,
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, cfg, sandboxWorkload())
		errc <- err
	}()
	<-nth
	cancelled := time.Now()
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if waited := time.Since(cancelled); waited > 500*time.Millisecond {
		t.Errorf("cancel during a 1024ms backoff took %v", waited)
	}
}

// prepPanicChecker panics in its second PrepareCrashPoint: the first runs on
// the supervisor (the walk is still inline), the second on the runner.
type prepPanicChecker struct {
	Checker
	calls int
}

func (p *prepPanicChecker) PrepareCrashPoint(*CheckContext) {
	if p.calls++; p.calls == 2 {
		panic("prepare-crash-point bug")
	}
}

// TestEnginePanicSurfacesOnCaller: an engine panic outside the guard, on the
// runner goroutine, must reach RunContext's caller as a panic it can recover
// (fuzz.StepDelta saves its reproducer there; campaign and fleet workers turn
// it into an error payload) — not kill the process from the runner.
func TestEnginePanicSurfacesOnCaller(t *testing.T) {
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		cfg := Config{NewFS: novaFS(bugs.None()), Checker: func(env RunEnv) Checker {
			return &prepPanicChecker{Checker: NewOracleChecker(env)}
		}}
		_, err := RunContext(context.Background(), cfg, mixedWorkload())
		t.Errorf("RunContext returned (err %v) past a panicking PrepareCrashPoint", err)
	}()
	if recovered != "prepare-crash-point bug" {
		t.Fatalf("recovered %v, want the PrepareCrashPoint panic value", recovered)
	}
}

// TestSandboxRunnersPerRunNotPerState pins what the perf claim rests on: a
// runner goroutine is started once per engine run that has a crash state to
// check — never for a run with none, never per state — plus once per
// abandonment.
func TestSandboxRunnersPerRunNotPerState(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		suite []workload.Workload
	}{
		{"nova/seq1", Config{NewFS: novaFS(bugs.None())}, ace.Seq1()[:20]},
		// A weak system checks only after fsync-family calls: one state per
		// seq1dax run, none at all per seq1 run.
		{"ext4-dax/seq1dax", Config{NewFS: extdaxFS()}, ace.Seq1Dax()[:40]},
		{"ext4-dax/seq1", Config{NewFS: extdaxFS()}, ace.Seq1()[:20]},
	} {
		var runners, withStates, states int64
		for _, w := range tc.suite {
			cfg := tc.cfg
			cfg.Obs = obs.New()
			res := mustRun(t, cfg, w)
			runners += res.Obs.Count(obs.CtrSandboxRunners)
			states += int64(res.StatesChecked)
			if res.StatesChecked > 0 {
				withStates++
			}
		}
		switch tc.name {
		case "nova/seq1":
			if states <= withStates {
				t.Fatalf("%s: %d states over %d runs; too few to tell per-run from per-state", tc.name, states, withStates)
			}
		case "ext4-dax/seq1":
			if withStates != 0 {
				t.Fatalf("%s: %d runs checked a state; the no-runner case needs none", tc.name, withStates)
			}
		}
		if runners != withStates {
			t.Errorf("%s: %d runners started, want %d (one per run with a crash state; %d states)",
				tc.name, runners, withStates, states)
		}
	}

	// The hang-once guest: one more runner per abandonment, nothing else.
	w := takeoverWorkload()
	base := Config{NewFS: novaFS(bugs.None()), CheckTimeout: takeoverTimeout}
	_, hEvents := journaledRun(t, base, w)
	fence, rank := stallTarget(t, hEvents)
	cfg := base
	var stall *stallChecker
	cfg.Checker, stall = stallAt(t, fence, rank, 0)
	stall.transient = true
	res, _ := journaledRun(t, cfg, w)
	if res.RetriedChecks != 1 || len(res.Quarantined) != 0 {
		t.Fatalf("hang-once guest: %d retried, %d quarantined; want 1, 0", res.RetriedChecks, len(res.Quarantined))
	}
	if n := res.Obs.Count(obs.CtrSandboxRunners); n != 2 {
		t.Errorf("hang-once guest: %d runners started, want 2 (one run with states + one abandonment)", n)
	}
}
