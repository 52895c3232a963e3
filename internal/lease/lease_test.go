package lease

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"chipmunk/internal/obs"
)

// TestTableMachine walks the lease state machine once, step by step, on one
// two-unit table with a 10s TTL and a 3-attempt budget. Each step names the
// transition it pins; the clock is the step's own, so nothing sleeps.
func TestTableMachine(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }
	tab := NewTable(2, 10*time.Second, 3, NewCounters())

	type want struct {
		state    State
		worker   string
		attempts int
		lastErr  string
		errFrom  string
	}
	steps := []struct {
		name string
		do   func() any // returns what the step's call returned
		ret  any
		unit int
		want want
	}{
		{"grant the lowest pending unit",
			func() any { i := tab.First(Pending); tab.Grant(i, "a", at(0)); return i }, 0,
			0, want{Leased, "a", 0, "", ""}},
		{"the holder asks again: same unit, no attempt booked",
			func() any { i := tab.HeldBy("a"); tab.Grant(i, "a", at(1)); return i }, 0,
			0, want{Leased, "a", 0, "", ""}},
		{"a different worker holds nothing and gets the next unit",
			func() any { return tab.HeldBy("b") }, -1,
			0, want{Leased, "a", 0, "", ""}},
		{"beat by the holder extends",
			func() any { return tab.Beat(0, "a", 7, at(5)) }, true,
			0, want{Leased, "a", 0, "", ""}},
		{"a lagging progress report does not regress the gauge",
			func() any { tab.Beat(0, "a", 3, at(6)); return tab.Slots[0].Progress }, 7,
			0, want{Leased, "a", 0, "", ""}},
		{"beat by a stranger is refused",
			func() any { return tab.Beat(0, "b", 0, at(6)) }, false,
			0, want{Leased, "a", 0, "", ""}},
		{"nothing expires inside the extended deadline",
			func() any { return len(tab.Expire(at(15))) }, 0,
			0, want{Leased, "a", 0, "", ""}},
		{"beat after the deadline is refused even before anyone expired the lease",
			func() any { return tab.Beat(0, "a", 0, at(17)) }, false,
			0, want{Leased, "a", 0, "", ""}},
		{"expire requeues: transport cause, attempt 1",
			func() any { return tab.Expire(at(17)) }, []int{0},
			0, want{Pending, "a", 1, CauseExpired, "a"}},
		{"the old holder no longer holds it",
			func() any { return tab.HeldBy("a") }, -1,
			0, want{Pending, "a", 1, CauseExpired, "a"}},
		{"stale error payload from the non-holder moves nothing",
			func() any { tab.Grant(0, "b", at(20)); return tab.Settle(0, "a", "engine: late", at(21)) }, Stale,
			0, want{Leased, "b", 1, CauseExpired, "a"}},
		{"payload cause from the holder: attempt 2, ledger cites the payload",
			func() any { return tab.Settle(0, "b", "engine: boom", at(22)) }, Failed,
			0, want{Pending, "b", 2, "engine: boom", "b"}},
		{"reject with an implausible identity only counts the bad payload",
			func() any { tab.Grant(0, "c", at(23)); return tab.Reject(0, "b", "checksum") }, Stale,
			0, want{Leased, "c", 2, "engine: boom", "b"}},
		{"reject out of range likewise",
			func() any { return tab.Reject(9, "c", "checksum") }, Stale,
			0, want{Leased, "c", 2, "engine: boom", "b"}},
		{"reject with the matching identity: attempts == retries, spent; transport after payload, ledger still cites the payload",
			func() any { return tab.Reject(0, "c", "checksum") }, Failed,
			0, want{Spent, "c", 3, "engine: boom", "b"}},
		{"late healthy result on the spent unit is discarded, not credited",
			func() any { return tab.Settle(0, "c", "", at(24)) }, Discarded,
			0, want{Spent, "c", 3, "engine: boom", "b"}},
		{"a spent unit is never granted again",
			func() any { return tab.First(Pending) }, 1,
			0, want{Spent, "c", 3, "engine: boom", "b"}},
		{"payload then payload: the later is cited",
			func() any {
				tab.Grant(1, "a", at(30))
				tab.Settle(1, "a", "engine: first", at(31))
				tab.Grant(1, "b", at(32))
				return tab.Settle(1, "b", "engine: second", at(33))
			}, Failed,
			1, want{Pending, "b", 2, "engine: second", "b"}},
		{"first healthy result is accepted, from a worker that never held a lease too",
			func() any { return tab.Settle(1, "d", "", at(34)) }, Accepted,
			1, want{Done, "d", 2, "engine: second", "b"}},
		{"duplicate credit is discarded",
			func() any { return tab.Settle(1, "b", "", at(35)) }, Duplicate,
			1, want{Done, "d", 2, "engine: second", "b"}},
	}
	for _, st := range steps {
		if got := st.do(); !reflect.DeepEqual(got, st.ret) {
			t.Fatalf("%s: returned %v, want %v", st.name, got, st.ret)
		}
		s := tab.Slots[st.unit]
		if g := (want{s.State, s.Worker, s.Attempts, s.LastErr, s.ErrWorker}); g != st.want {
			t.Fatalf("%s: unit %d is %+v, want %+v", st.name, st.unit, g, st.want)
		}
	}
	c := tab.Counters
	if c.Granted != 6 || c.Redispatched != 4 || c.Duplicates != 2 || c.BadPayloads != 3 ||
		c.Heartbeats != 2 || c.PerWorker["d"] != 1 || len(c.PerWorker) != 1 {
		t.Fatalf("counters: %+v", *c)
	}
	if tab.Count(Spent) != 1 || tab.Count(Done) != 1 || tab.Open() != 0 {
		t.Fatalf("final states: %+v", tab.Slots)
	}
}

// TestLogTolerantReader: the one checkpoint reader skips — and counts — lines
// its owner's decoder refuses, among them the torn tail of a SIGKILLed
// writer; blank lines are not records; a missing file is a first run.
func TestLogTolerantReader(t *testing.T) {
	dir := t.TempDir()
	read := func(path string) (oks []int, skipped int) {
		t.Helper()
		skipped, err := ReadLog("test", path, func(line []byte) bool {
			var rec struct{ OK *int }
			if json.Unmarshal(line, &rec) != nil || rec.OK == nil {
				return false
			}
			oks = append(oks, *rec.OK)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return oks, skipped
	}
	if oks, skipped := read(filepath.Join(dir, "absent")); len(oks) != 0 || skipped != 0 {
		t.Fatalf("missing file: %v, %d skipped", oks, skipped)
	}

	path := filepath.Join(dir, "ckpt")
	l, err := OpenLog("test", path, map[string]int{"ok": 0}) // the header
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := l.Append(map[string]int{"ok": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(intact) != "{\"ok\":0}\n{\"ok\":1}\n{\"ok\":2}\n" {
		t.Fatalf("log on disk: %q", intact)
	}
	for _, tc := range []struct {
		name, tail string
		skipped    int
	}{
		{"intact", "", 0},
		{"torn final line", `{"ok":3,"pay`, 1},
		{"blank line, then a record of an unknown kind", "\n{\"other\":1}\n", 1},
	} {
		if err := os.WriteFile(path, append(intact[:len(intact):len(intact)], tc.tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		oks, skipped := read(path)
		if len(oks) != 3 || oks[0] != 0 || oks[2] != 2 || skipped != tc.skipped {
			t.Errorf("%s: records %v, %d skipped (want the 3 appended, %d skipped)", tc.name, oks, skipped, tc.skipped)
		}
	}
	var none *Log
	if err := none.Append("x"); err != nil || none.Close() != nil {
		t.Fatalf("a nil log must discard: %v", err)
	}
}

// TestRunUnitOutcomes pins the five-way classification and the heartbeat's
// refusal -> lost -> cancel path.
func TestRunUnitOutcomes(t *testing.T) {
	extend := func(context.Context, time.Duration, int) (bool, error) { return true, nil }
	hang := func(ctx context.Context) error { <-ctx.Done(); return ctx.Err() }
	boom := errors.New("engine: boom")

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var beats atomic.Int64
	for _, tc := range []struct {
		name    string
		ctx     context.Context
		timeout time.Duration
		beat    func(context.Context, time.Duration, int) (bool, error)
		run     func(context.Context) error
		want    RunOutcome
		errHas  string
	}{
		{"ok", context.Background(), time.Minute, extend, func(context.Context) error { return nil }, RunOK, ""},
		{"engine error", context.Background(), time.Minute, extend, func(context.Context) error { return boom }, RunFailed, "engine: boom"},
		{"panic contained", context.Background(), time.Minute, extend, func(context.Context) error { panic("kaboom") }, RunFailed, "engine panic: kaboom"},
		{"watchdog", context.Background(), 20 * time.Millisecond, extend, hang, RunWatchdog, "deadline"},
		{"no watchdog when negative", context.Background(), -1, extend, func(ctx context.Context) error {
			if _, ok := ctx.Deadline(); ok {
				return errors.New("deadline set")
			}
			return nil
		}, RunOK, ""},
		{"worker cancelled", cancelled, time.Minute, extend, hang, RunCancelled, "canceled"},
		{"heartbeat refused", context.Background(), time.Minute,
			func(context.Context, time.Duration, int) (bool, error) { return false, nil }, hang, RunLost, "canceled"},
		{"failed heartbeat POST stops beating quietly", context.Background(), 60 * time.Millisecond,
			func(context.Context, time.Duration, int) (bool, error) {
				beats.Add(1)
				return false, errors.New("post failed")
			},
			hang, RunWatchdog, "deadline"},
	} {
		// ttl 9ms -> a heartbeat every 3ms.
		got, err := RunUnit(tc.ctx, tc.timeout, 9*time.Millisecond, tc.beat, tc.run)
		if got != tc.want {
			t.Errorf("%s: outcome %d, want %d (err %v)", tc.name, got, tc.want, err)
		}
		if (err == nil) != (tc.errHas == "") || (err != nil && !strings.Contains(err.Error(), tc.errHas)) {
			t.Errorf("%s: err %v, want one containing %q", tc.name, err, tc.errHas)
		}
	}
	if n := beats.Load(); n != 1 {
		t.Errorf("heartbeat kept posting after a failed POST: %d beats", n)
	}
}

// TestShellStatusView pins the one status model both coordinators serve: the
// state-to-character map with its barrier separator, the in-flight rows in
// kind then unit order, progress and rate (credited states only), the ETA,
// and the read-only rule — a lease past its deadline still shows as leased
// and nothing is re-dispatched by looking. It then reads the same view over
// the shell's HTTP surface.
func TestShellStatusView(t *testing.T) {
	ctr := NewCounters()
	rounds := NewTable(6, 10*time.Second, 2, ctr)
	mins := NewTable(2, 10*time.Second, 2, ctr)
	var sh Shell
	mux := sh.Init(nil, []Kind{
		{Name: "round", SpentAs: "dropped", Group: 2, Table: rounds},
		{Name: "minimize", SpentAs: "dropped", Table: mins},
	}, nil, nil)
	// Rounds 0..5, in barrier groups of 2: resumed, credited live, leased with
	// progress 7, spent, leased past its deadline, pending. Minimization task
	// 1 is leased with progress 5.
	now := time.Now().Add(time.Minute)
	rounds.Resume(0, "w")
	rounds.Grant(1, "a", now)
	rounds.Settle(1, "a", "", now)
	rounds.Grant(2, "b", now)
	rounds.Beat(2, "b", 7, now)
	for attempt := 0; attempt < 2; attempt++ {
		rounds.Grant(3, "c", now)
		rounds.Settle(3, "c", "engine: boom", now)
	}
	rounds.Grant(4, "c", now.Add(-20*time.Second))
	mins.Grant(1, "d", now)
	mins.Beat(1, "d", 5, now)

	st := sh.StatusLocked(now, 100)
	if d := st.Dash; d.Map != "##|rX|r." || d.Units != 6 || d.Spent != 1 || d.Noun != "round" || d.Group != 2 {
		t.Errorf("primary table: %+v", d)
	}
	if st.Pending != 1 || st.Leased != 2 || st.Done != 2 || st.Resumed != 1 {
		t.Errorf("counts: %+v", st)
	}
	var rows []string
	for _, u := range st.InFlight {
		rows = append(rows, fmt.Sprintf("%s %d %s %d", u.Kind, u.ID, u.Worker, u.Progress))
	}
	if got := strings.Join(rows, ", "); got != "round 2 b 7, round 4 c 0, minimize 1 d 5" {
		t.Errorf("in-flight rows: %s", got)
	}
	if st.StatesChecked != 112 || st.StatesPerSec != 100/st.ElapsedSec || st.ETASec != 3*st.ElapsedSec {
		t.Errorf("progress: checked %d, rate %v, eta %v over %vs", st.StatesChecked, st.StatesPerSec, st.ETASec, st.ElapsedSec)
	}
	if len(st.Workers) != 3 || st.Workers[0].ID != "a" || st.Workers[0].ShardsDone != 1 {
		t.Errorf("workers: %+v", st.Workers)
	}
	if rounds.Slots[4].State != Leased || rounds.Slots[4].Attempts != 0 || ctr.Redispatched != 1 {
		t.Errorf("a status probe advanced the machine: %+v, %d re-dispatched", rounds.Slots[4], ctr.Redispatched)
	}
	if _, err := sh.UnitLocked("round", 6); err == nil {
		t.Error("out-of-range unit resolved")
	}
	if _, err := sh.UnitLocked("shard", 0); err == nil {
		t.Error("unknown kind resolved")
	}

	sh.status = func() any { return sh.StatusLocked(now, 100) }
	sh.census = func() *obs.Snapshot { return nil }
	srv := httptest.NewServer(mux)
	defer srv.Close()
	for path, want := range map[string][]string{
		PathStatus: {"application/json", `"campaign_id":""`, `"progress":7`, `"states_checked":112`},
		PathDash: {"text/html", "<!DOCTYPE html>", "2/6 rounds done", "1 dropped", "round map", "'|' barrier every 2",
			"<td>minimize</td><td>1</td><td>d</td>"},
		"/debug/metrics": {obs.MetricsContentType, "chipmunk_states_checked_total 0\n",
			"# TYPE chipmunk_lease_granted_total counter\nchipmunk_lease_granted_total 6\n",
			"chipmunk_lease_redispatched_total 1\n", "chipmunk_lease_heartbeats_total 2\n", "chipmunk_lease_payloads_rejected_total 0\n",
			"# TYPE chipmunk_lease_units_spent gauge\nchipmunk_lease_units_spent 1\n", "chipmunk_lease_units_leased 3\n"},
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s (%v)", path, resp.Status, err)
		}
		got := resp.Header.Get("Content-Type") + "\n" + string(body)
		for _, w := range want {
			if !strings.Contains(got, w) {
				t.Errorf("GET %s lacks %q:\n%s", path, w, got)
			}
		}
	}
}

// waitJob answers PollWait waits times, then PollDone, and stamps each ask.
type waitJob struct {
	waits int
	asks  []time.Time
}

func (j *waitJob) Lease(context.Context) (Poll, time.Duration, error) {
	j.asks = append(j.asks, time.Now())
	if len(j.asks) > j.waits {
		return PollDone, 0, nil
	}
	return PollWait, 0, nil
}
func (j *waitJob) Beat(context.Context, time.Duration, int) (bool, error) { return true, nil }
func (j *waitJob) Run(context.Context) error                              { return nil }
func (j *waitJob) Report(context.Context, RunOutcome, error) (bool, error) {
	return false, nil
}

// TestWaitRepollsWithBackoff: a worker told to wait re-polls after a
// jittered pause whose cap doubles from waitBase to waitCeil — soon after a
// short wait, never in a hot loop, and never slower than waitCeil.
func TestWaitRepollsWithBackoff(t *testing.T) {
	for n := 1; n <= 40; n++ {
		ceil := min(waitBase<<min(n-1, 30), waitCeil)
		for k := 0; k < 50; k++ {
			if d := jitter(waitBase, n, waitCeil); d < 0 || d > ceil {
				t.Fatalf("jitter(%v, %d, %v) = %v, outside [0, %v]", waitBase, n, waitCeil, d, ceil)
			}
		}
	}
	var sum time.Duration
	for k := 0; k < 1000; k++ {
		sum += jitter(waitBase, 30, waitCeil)
	}
	if mean := sum / 1000; mean < waitCeil*3/8 || mean > waitCeil*5/8 {
		t.Errorf("mean pause at the ceiling %v, want about %v", mean, waitCeil/2)
	}

	w := &Worker{Addr: "unused", ID: "w"}
	w.Init(time.Second)
	job := &waitJob{waits: 8}
	start := time.Now()
	if err := w.Work(context.Background(), "run", job); err != nil || len(job.asks) != 9 {
		t.Fatalf("Work = %v after %d asks, want done on the 9th", err, len(job.asks))
	}
	// The eight pauses are capped at 1, 2, 4, ..., 64, 64 ms (expected sum
	// ~96ms): a hot loop takes microseconds, the cap bounds the total.
	if el := time.Since(start); el < 2*time.Millisecond || el > 8*waitCeil+time.Second {
		t.Errorf("eight waits took %v", el)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := w.Work(ctx, "run", &waitJob{waits: 1 << 30}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Work = %v", err)
	}
}

// TestRepeatedRejectionIsNotGone: a coordinator that answers every attempt
// of a POST with HTTP 400 is up and refusing the bytes, so PostJSON fails
// without ErrCoordinatorGone (a worker then exits with an error instead of
// assuming the run is over); a refused connection still is ErrCoordinatorGone.
func TestRepeatedRejectionIsNotGone(t *testing.T) {
	var posts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		WriteJSONError(w, http.StatusBadRequest, "payload checksum mismatch")
	}))
	err := PostJSON(context.Background(), srv.Client(), srv.URL+"/result", map[string]int{"shard": 0}, nil, 50*time.Millisecond)
	srv.Close()
	if err == nil || errors.Is(err, ErrCoordinatorGone) || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("always-400 coordinator: err = %v, want a rejection that is not ErrCoordinatorGone", err)
	}
	if n := posts.Load(); n < 2 {
		t.Fatalf("%d POSTs: a 400 must be retried within the budget", n)
	}
	err = PostJSON(context.Background(), &http.Client{}, srv.URL+"/result", map[string]int{"shard": 0}, nil, 50*time.Millisecond)
	if !errors.Is(err, ErrCoordinatorGone) {
		t.Fatalf("refused connection: err = %v, want ErrCoordinatorGone", err)
	}
}
