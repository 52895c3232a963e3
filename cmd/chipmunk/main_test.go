package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chipmunk/internal/ace"
	"chipmunk/internal/campaign"
	"chipmunk/internal/fleet"
	"chipmunk/internal/harness"
	"chipmunk/internal/obs"
)

// suiteSpec is seq2's first max workloads on NOVA with every bug injected;
// 128 of them cut into four units.
func suiteSpec(max int) campaign.Spec {
	return campaign.Spec{FS: "nova", Bugs: "all", Suite: "seq2", Max: max, Cap: 2, Workers: 1}
}

// fuzzSpec is a small exec-budget soak on NOVA with the two rename bugs.
func fuzzSpec(execs, genRounds int) campaign.Spec {
	return campaign.Spec{
		FS: "nova", Bugs: "4,5", Cap: 2, Workers: 1, Fuzz: true, FuzzSeed: 11,
		BudgetExecs: execs, RoundExecs: 15, GenRounds: genRounds, MinExecs: 20,
	}
}

// freeAddr returns a loopback address nothing listens on yet.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// serveRun drives the -serve path in process: runCoordinator on a loopback
// address with n in-process workers (each panicking on the poison shards),
// reports written under outDir. It returns the exit code.
func serveRun(t *testing.T, spec campaign.Spec, outDir string, n int, poison ...int) int {
	t.Helper()
	addr := freeAddr(t)
	cli := &harness.CLIOptions{OutDir: outDir}
	inst, err := cli.Instrument()
	if err != nil {
		t.Fatal(err)
	}
	codes := make(chan int, 1)
	go func() { codes <- runCoordinator(addr, spec, serveKnobs{}, inst, cli) }()
	// Workers join once the coordinator listens, so none backs off past a
	// run the others finish.
	for {
		if conn, err := net.Dial("tcp", addr); err == nil {
			conn.Close()
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("w%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if spec.Fuzz {
				err = fleet.RunWorker(context.Background(), fleet.WorkerConfig{
					Addr: addr, ID: id, DialBudget: 2 * time.Second,
				})
			} else {
				err = campaign.RunWorker(context.Background(), campaign.WorkerConfig{
					Addr: addr, ID: id, DialBudget: 2 * time.Second, PoisonShards: poison,
				})
			}
			if err != nil {
				t.Errorf("worker %s: %v", id, err)
			}
		}()
	}
	wg.Wait()
	return <-codes
}

// TestServeSuiteCampaign: a suite spec takes the campaign path; bugs-all
// violations give exit 1 and CAMPAIGN.txt lands under -o.
func TestServeSuiteCampaign(t *testing.T) {
	dir := t.TempDir()
	if code := serveRun(t, suiteSpec(128), dir, 2); code != harness.ExitViolations {
		t.Fatalf("exit %d, want %d", code, harness.ExitViolations)
	}
	data, err := os.ReadFile(filepath.Join(dir, "CAMPAIGN.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "fingerprint") {
		t.Fatalf("CAMPAIGN.txt:\n%s", data)
	}
}

// TestServePoisonedShardDegrades: a shard that panics every worker is
// quarantined, and the degraded exit code outranks the violations found.
func TestServePoisonedShardDegrades(t *testing.T) {
	dir := t.TempDir()
	if code := serveRun(t, suiteSpec(128), dir, 2, 2); code != harness.ExitDegraded {
		t.Fatalf("exit %d, want %d", code, harness.ExitDegraded)
	}
	data, err := os.ReadFile(filepath.Join(dir, "CAMPAIGN.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "chaos: poisoned shard 2") {
		t.Fatalf("CAMPAIGN.txt lacks the quarantined shard:\n%s", data)
	}
}

// TestServeFuzzSoak: a fuzz spec takes the fleet path, and on an exec budget
// FUZZCENSUS.md is byte-identical with one worker and with two.
func TestServeFuzzSoak(t *testing.T) {
	var censuses [][]byte
	for _, n := range []int{1, 2} {
		dir := t.TempDir()
		if code := serveRun(t, fuzzSpec(120, 4), dir, n); code != harness.ExitViolations {
			t.Fatalf("workers=%d: exit %d, want %d", n, code, harness.ExitViolations)
		}
		data, err := os.ReadFile(filepath.Join(dir, "FUZZCENSUS.md"))
		if err != nil {
			t.Fatal(err)
		}
		censuses = append(censuses, data)
	}
	if !bytes.Equal(censuses[0], censuses[1]) {
		t.Fatalf("FUZZCENSUS.md differs between 1 and 2 workers:\n--- 1 ---\n%s\n--- 2 ---\n%s", censuses[0], censuses[1])
	}
}

// localRun drives -fuzz without -serve in process: runCoordinator on a
// loopback port with n in-process workers. It returns the exit code.
func localRun(t *testing.T, spec campaign.Spec, outDir string, n int) int {
	t.Helper()
	cli := &harness.CLIOptions{OutDir: outDir}
	inst, err := cli.Instrument()
	if err != nil {
		t.Fatal(err)
	}
	return runCoordinator("127.0.0.1:0", spec, serveKnobs{localWorkers: n}, inst, cli)
}

// TestLocalFuzzMatchesServe: local -fuzz is the fleet soak in one process,
// so with -j 1 and -j 2 it writes the FUZZCENSUS.md a -serve soak with one
// worker writes for the same spec; with no bugs injected it exits clean.
func TestLocalFuzzMatchesServe(t *testing.T) {
	dir := t.TempDir()
	if code := serveRun(t, fuzzSpec(120, 4), dir, 1); code != harness.ExitViolations {
		t.Fatalf("serve: exit %d, want %d", code, harness.ExitViolations)
	}
	want, err := os.ReadFile(filepath.Join(dir, "FUZZCENSUS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2} {
		dir := t.TempDir()
		if code := localRun(t, fuzzSpec(120, 4), dir, n); code != harness.ExitViolations {
			t.Fatalf("-j %d: exit %d, want %d", n, code, harness.ExitViolations)
		}
		got, err := os.ReadFile(filepath.Join(dir, "FUZZCENSUS.md"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("-j %d: FUZZCENSUS.md differs from the -serve soak's:\n--- local ---\n%s\n--- serve ---\n%s", n, got, want)
		}
	}
	clean := fuzzSpec(60, 4)
	clean.Bugs = "none"
	if code := localRun(t, clean, t.TempDir(), 2); code != harness.ExitClean {
		t.Fatalf("-bugs none: exit %d, want %d", code, harness.ExitClean)
	}
}

// TestWorkerFetchesSpecOnce: the -worker path makes exactly one handshake
// GET in either mode — it routes on the spec it fetched and hands it to the
// worker instead of letting the worker fetch it again.
func TestWorkerFetchesSpecOnce(t *testing.T) {
	for _, spec := range []campaign.Spec{suiteSpec(4), fuzzSpec(15, 1)} {
		var coord interface {
			http.Handler
			Close() error
		}
		var err error
		if spec.Fuzz {
			coord, err = fleet.NewCoordinator(fleet.CoordinatorConfig{Spec: spec})
		} else {
			coord, err = campaign.NewCoordinator(campaign.CoordinatorConfig{Spec: spec})
		}
		if err != nil {
			t.Fatal(err)
		}
		var gets atomic.Int32
		srv, err := campaign.ListenAndServe("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == campaign.PathSpec {
				gets.Add(1)
			}
			coord.ServeHTTP(w, r)
		}))
		if err != nil {
			t.Fatal(err)
		}
		if code := runWorker(srv.Addr(), &harness.CLIOptions{Jobs: 1}, 0, -1); code != harness.ExitClean {
			t.Errorf("fuzz=%v: worker exit %d", spec.Fuzz, code)
		}
		srv.Close()
		coord.Close()
		if n := gets.Load(); n != 1 {
			t.Errorf("fuzz=%v: %d spec GETs, want 1", spec.Fuzz, n)
		}
	}
}

// TestAppSweepSpanIDsUnique: an -app sweep runs the same workload names on
// every system, so each system traces on its own and the journal holds no
// (trace, span) pair twice.
func TestAppSweepSpanIDsUnique(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "sweep.jsonl")
	args := []string{"-app", "kv", "-journal", journal, "-durability-report", filepath.Join(dir, "DURABILITY.md")}
	cmd, err := parseCommand(flag.NewFlagSet("chipmunk", flag.ContinueOnError), args)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := cmd.spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := cmd.cli.Instrument()
	if err != nil {
		t.Fatal(err)
	}
	inst.Apply(&opts)
	suite, err := ace.SuiteByName("kv-smoke")
	if err != nil {
		t.Fatal(err)
	}
	systems := harness.Systems()[:2]
	if code := runApp(cmd.cli, cmd.spec, opts, "kv-smoke", suite, systems, inst); code != harness.ExitClean {
		t.Fatalf("sweep exit %d, want %d", code, harness.ExitClean)
	}
	events, skipped, err := obs.ReadJournalFile(journal)
	if err != nil || skipped != 0 {
		t.Fatalf("journal read: err=%v skipped=%d", err, skipped)
	}
	seen := map[[2]string]bool{}
	traces := map[string]bool{}
	for _, e := range events {
		if e.Type != "span" {
			continue
		}
		id := [2]string{e.Trace, e.Span}
		if seen[id] {
			t.Fatalf("(trace, span) %v emitted twice: %+v", id, e)
		}
		seen[id] = true
		traces[e.Trace] = true
	}
	if len(traces) != len(systems) {
		t.Fatalf("%d spans in %d traces, want one trace per system (%d)", len(seen), len(traces), len(systems))
	}
}

// TestCoordinatorSpecCampaignIDs pins the wire identity of the spec -serve
// and -fuzz coordinate: each command line's campaign ID (a hash of the
// spec's JSON) is the one earlier builds printed, so their -resume
// checkpoints stay valid.
func TestCoordinatorSpecCampaignIDs(t *testing.T) {
	for _, tc := range []struct{ args, id string }{
		{"-fs nova -suite seq2", "c93b3bc9bec561198"},
		{"-fs pmfs -bugs 13,16 -suite seq1 -max 50 -cap 2 -faults -fault-seed 7", "c9dec495296923f4e"},
		{"-app kv -fs winefs -check-timeout 2s -exhaustive-limit 10 -stats", "c0c0ece604dda491a"},
		{"-fuzz -budget 300 -bugs 4,5 -fs nova", "feebf1e61ada82199"},
		{"-fuzz -budget 90s -fuzz-seed 3 -round-execs 40 -gen-rounds 4 -cap 3 -app kv -app-bugs ack-loss", "f57d76345545c2f43"},
	} {
		cmd, err := parseCommand(flag.NewFlagSet("chipmunk", flag.ContinueOnError), strings.Fields(tc.args))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := cmd.coordinatorSpec()
		if err != nil {
			t.Fatal(err)
		}
		var coord interface {
			Info() campaign.SpecInfo
			Close() error
		}
		if spec.Fuzz {
			coord, err = fleet.NewCoordinator(fleet.CoordinatorConfig{Spec: spec})
		} else {
			coord, err = campaign.NewCoordinator(campaign.CoordinatorConfig{Spec: spec})
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		if got := coord.Info().CampaignID; got != tc.id {
			t.Errorf("%s: campaign %s, want %s (spec %+v)", tc.args, got, tc.id, spec)
		}
		coord.Close()
	}
}

// TestWorkerRefusesEngineFlags: a worker takes its run selection from the
// coordinator, so -worker refuses every flag campaign.Spec binds, naming
// each one the command line set, before it dials anything; the worker's own
// and the observability flags still parse.
func TestWorkerRefusesEngineFlags(t *testing.T) {
	parse := func(args string) error {
		fl := flag.NewFlagSet("chipmunk", flag.ContinueOnError)
		_, err := parseCommand(fl, strings.Fields(args))
		return err
	}
	err := parse("-worker 127.0.0.1:1 -bugs 99 -fs nope")
	if err == nil || !strings.Contains(err.Error(), "-bugs -fs") {
		t.Errorf("-worker with -bugs and -fs: err %v, want both named", err)
	}
	for _, set := range []string{"-fs pmfs", "-bugs 4", "-cap 2", "-check-timeout 2s", "-exhaustive-limit 9",
		"-app kv", "-app-bugs ack-loss", "-faults", "-fault-seed 3"} {
		name := strings.Fields(set)[0]
		if err := parse("-worker 127.0.0.1:1 " + set); err == nil || !strings.HasSuffix(err.Error(), "drop "+name) {
			t.Errorf("-worker %s: err %v, want %s named", set, err, name)
		}
	}
	if err := parse("-worker 127.0.0.1:1 -j 2 -stats -journal J -shard-timeout 1m -poison-shard 3"); err != nil {
		t.Errorf("-worker with its own flags: %v", err)
	}
	if err := parse("-bugs 4,5 -fs pmfs"); err != nil {
		t.Errorf("engine flags without -worker: %v", err)
	}
}
