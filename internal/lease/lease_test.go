package lease

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
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
	text := MetricsText(tab)
	for _, series := range []string{
		"# TYPE chipmunk_lease_granted_total counter\nchipmunk_lease_granted_total 6\n",
		"chipmunk_lease_payloads_rejected_total 3\n",
		"# TYPE chipmunk_lease_units_spent gauge\nchipmunk_lease_units_spent 1\n",
		"chipmunk_lease_units_leased 0\n",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics missing %q:\n%s", series, text)
		}
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
