package harness

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"chipmunk/internal/ace"
	"chipmunk/internal/app/kvstore"
	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
	"chipmunk/internal/obs"
	"chipmunk/internal/persist"
	"chipmunk/internal/pmem"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

// memoCase is one configuration the prefix-memo differential runs a suite
// under.
type memoCase struct {
	name  string
	cfg   core.Config
	suite []workload.Workload
	// shares says the suite has op prefixes whose crash points the memo must
	// serve, so a shared run that served nothing fails the case.
	shares bool
	// mkfs, when set, counts the guest's Mkfs calls (forkingFS): a serial
	// Run that formatted once per workload forked nothing, and fails.
	mkfs *atomic.Int64
	// hostile says every crash state's check panics, so no mounted image
	// is ever observed.
	hostile bool
}

func memoCases(t *testing.T) []memoCase {
	var cases []memoCase
	add := func(name string, sys System, opts Options, suite []workload.Workload) {
		opts.Obs = obs.New()
		cases = append(cases, memoCase{name: name, cfg: opts.ConfigFor(sys), suite: suite, shares: !sys.Weak})
	}
	bugModes := []struct {
		name string
		set  bugs.Set
	}{{"no-bugs", bugs.None()}, {"all-bugs", bugs.AllSet()}}
	faultModes := []struct {
		name   string
		faults *pmem.FaultConfig
	}{{"clean", nil}, {"faults", pmem.DefaultFaults(5)}}
	for _, sys := range Systems() {
		seq1 := ace.Seq1()
		if sys.Weak {
			seq1 = ace.Seq1Dax()
		}
		for _, bm := range bugModes {
			for _, fm := range faultModes {
				tag := fmt.Sprintf("%s/%s/%s", sys.Name, bm.name, fm.name)
				add(tag+"/seq1", sys, Options{Bugs: bm.set, Faults: fm.faults}, seq1)
				add(tag+"/kv", sys, Options{Bugs: bm.set, Faults: fm.faults, App: "kv"}, ace.KV())
				if sys.Name == "nova" || sys.Name == "pmfs" {
					add(tag+"/seq2", sys, Options{Bugs: bm.set, Faults: fm.faults}, ace.Seq2()[:112])
				}
			}
		}
	}
	nova, _ := SystemByName("nova")
	vinter := Options{Bugs: bugs.AllSet(), Obs: obs.New()}.ConfigFor(nova)
	vinter.VinterFilter = true
	cases = append(cases, memoCase{name: "nova/all-bugs/vinter/seq1", cfg: vinter, suite: ace.Seq1(), shares: true})

	// A workload that is a strict op prefix of others, in both orders. The
	// short one ends with a descriptor open on an unlinked file, so closing
	// it after the last op reclaims the inode: crash points outside any
	// syscall, which depend on the whole workload and must never be served.
	short := workload.Workload{Name: "short", Ops: []workload.Op{
		{Kind: workload.OpCreat, Path: "/f", FDSlot: 0},
		{Kind: workload.OpWrite, Path: "/f", FDSlot: 0, Size: 4096, Seed: 7},
		{Kind: workload.OpUnlink, Path: "/f", FDSlot: -1},
	}}
	long := func(name string, op workload.Op) workload.Workload {
		return workload.Workload{Name: name, Ops: append(slices.Clone(short.Ops), op)}
	}
	tail := []workload.Workload{
		short,
		long("long-close", workload.Op{Kind: workload.OpClose, FDSlot: 0}),
		long("long-mkdir", workload.Op{Kind: workload.OpMkdir, Path: "/d", FDSlot: -1}),
		{Name: "short-again", Ops: short.Ops},
	}
	if !hasTailCrashPoint(t, Options{Bugs: bugs.None()}.ConfigFor(nova), short) {
		t.Fatal("the prefix case's short workload has no crash point after its last op")
	}
	for _, bm := range bugModes {
		cfg := Options{Bugs: bm.set, Obs: obs.New()}.ConfigFor(nova)
		cases = append(cases,
			memoCase{name: "nova/" + bm.name + "/prefix", cfg: cfg, suite: tail, shares: true},
			memoCase{name: "nova/" + bm.name + "/prefix-reversed", cfg: cfg, suite: reversed(tail), shares: true})
	}

	// The hostile guest: every crash state's Mount panics, and each is
	// quarantined on its one attempt, retiring its image.
	for _, name := range []string{"nova", "pmfs"} {
		sys, _ := SystemByName(name)
		cfg := Options{Bugs: bugs.None(), Obs: obs.New()}.ConfigFor(sys)
		newFS := cfg.NewFS
		cfg.NewFS = func(pm *persist.PM) vfs.FS { return mountPanicFS{newFS(pm)} }
		cases = append(cases, memoCase{name: name + "/hostile/seq1", cfg: cfg, suite: ace.Seq1(), shares: true, hostile: true})
	}
	return cases
}

// forkCases run the forking systems over slices of nested op prefixes —
// seq-2-dax on the DAX systems, seq-2 on NOVA and NOVA-Fortis — clean,
// faulted, and hostile, and NOVA-Fortis with every bug, whose bugs 9 and 10
// defer work to each syscall's end, counting their Mkfs calls. The engine
// matrix has no goldens for them: their reference is the unforked loop
// alone.
func forkCases() []memoCase {
	var cases []memoCase
	add := func(name string, set bugs.Set, mode string, faults *pmem.FaultConfig, suite string, ws []workload.Workload) {
		sys, _ := SystemByName(name)
		cfg := Options{Bugs: set, Faults: faults, Obs: obs.New()}.ConfigFor(sys)
		mkfs := new(atomic.Int64)
		newFS := cfg.NewFS
		hostile := mode == "hostile"
		cfg.NewFS = func(pm *persist.PM) vfs.FS { return forking(newFS(pm), mkfs, hostile) }
		cases = append(cases, memoCase{name: name + "/" + mode + "/" + suite, cfg: cfg, suite: ws, shares: !sys.Weak, mkfs: mkfs})
	}
	for _, s := range []struct {
		name, suite string
		ws          []workload.Workload
	}{
		{"ext4-dax", "seq2dax", ace.Seq2Dax()[:240]},
		{"xfs-dax", "seq2dax", ace.Seq2Dax()[:240]},
		{"nova", "seq2", ace.Seq2()[:112]},
		{"nova-fortis", "seq2", ace.Seq2()[:112]},
	} {
		add(s.name, bugs.None(), "clean", nil, s.suite, s.ws)
		add(s.name, bugs.None(), "faults", pmem.DefaultFaults(5), s.suite, s.ws)
		add(s.name, bugs.None(), "hostile", nil, s.suite, s.ws)
	}
	add("nova-fortis", bugs.AllSet(), "all-bugs", nil, "seq2", ace.Seq2()[:112])
	return cases
}

// forkerFS is a forking guest.
type forkerFS interface {
	vfs.FS
	vfs.Forker
}

// forkingFS wraps a forking guest to count its Mkfs calls and, when
// hostile, to panic on Mount (crash-state checks only). Its forks are
// wrapped alike.
type forkingFS struct {
	forkerFS
	mkfs    *atomic.Int64
	hostile bool
}

// forking wraps fs in a forkingFS that keeps fs's extended attributes, if
// it has them (the DAX systems).
func forking(fs vfs.FS, mkfs *atomic.Int64, hostile bool) vfs.FS {
	f := forkingFS{fs.(forkerFS), mkfs, hostile}
	if x, ok := fs.(vfs.XattrFS); ok {
		return struct {
			forkingFS
			vfs.XattrFS
		}{f, x}
	}
	return f
}

func (f forkingFS) Mkfs() error {
	f.mkfs.Add(1)
	return f.forkerFS.Mkfs()
}

func (f forkingFS) Mount() error {
	if f.hostile {
		panic("hostile crash state")
	}
	return f.forkerFS.Mount()
}

func (f forkingFS) Fork(pm persist.Space) vfs.FS {
	g := f.forkerFS.Fork(pm)
	if g == nil {
		return nil
	}
	return forking(g, f.mkfs, f.hostile)
}

// TestPrefixMemoMatchesUnshared is the differential of the prefix memo and
// of the fork chains: over every system, bug set and fault mode, and a
// hostile guest, and seq-2 and seq-2-dax slices on the forking systems,
// Run — serially, and over a seeded permutation with two workers — returns
// for each workload exactly the Result a loop of memo-less, unforked
// core.RunContext calls does. Only stage timings
// and measurement-class counters may differ; a quarantined state's captured
// stack is diagnostic and excluded.
func TestPrefixMemoMatchesUnshared(t *testing.T) {
	for i, c := range append(memoCases(t), forkCases()...) {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for mode, got := range runShared(t, int64(i), c) {
				var served int64
				for _, res := range got {
					served += res.Obs.Count(obs.CtrMemoServed)
				}
				if c.shares && served == 0 {
					t.Errorf("%s: the memo served no crash state", mode)
				}
			}
		})
	}
}

// runShared runs c's suite through Run serially and, over a permutation
// seeded by seed, with two workers, and fails t on every Result that
// differs from a loop of memo-less, unforked core.RunContext calls. It
// returns each mode's Results in suite order.
func runShared(t *testing.T, seed int64, c memoCase) map[string][]*core.Result {
	t.Helper()
	ctx := context.Background()
	want := make([]*core.Result, len(c.suite))
	for j, w := range c.suite {
		res, err := core.RunContext(ctx, c.cfg, w)
		if err != nil {
			t.Fatalf("unshared %s: %v", w.Name, err)
		}
		want[j] = res
	}
	perm := rand.New(rand.NewSource(seed)).Perm(len(c.suite))
	out := map[string][]*core.Result{}
	for _, mode := range []struct {
		name  string
		order []int
		rc    runConfig
	}{
		{"serial", identity(len(c.suite)), runConfig{workers: 1}},
		{"j=2", perm, runConfig{workers: 2}},
	} {
		suite := make([]workload.Workload, len(c.suite))
		for k, j := range mode.order {
			suite[k] = c.suite[j]
		}
		got := make([]*core.Result, len(c.suite))
		mode.rc.results = func(k int, res *core.Result) { got[mode.order[k]] = res }
		if c.mkfs != nil {
			c.mkfs.Store(0)
		}
		if _, _, err := mode.rc.run(ctx, c.cfg, suite); err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if c.mkfs != nil && mode.rc.workers == 1 && c.mkfs.Load() >= int64(len(suite)) {
			t.Errorf("%s: %d Mkfs calls for %d workloads: nothing forked", mode.name, c.mkfs.Load(), len(suite))
		}
		for j := range c.suite {
			if d := resultDiff(want[j], got[j]); d != "" {
				t.Errorf("%s: %s differs from the unshared run: %s", mode.name, c.suite[j].Name, d)
			}
		}
		out[mode.name] = got
	}
	return out
}

// canonical is the part of r the engine guarantees deterministic: everything
// but the Obs snapshot, which resultDiff compares by its deterministic
// counters and its simulated-PM counters, and a quarantined state's
// captured stack, which is diagnostic.
func canonical(r *core.Result) core.Result {
	c := *r
	c.Obs = nil
	c.Quarantined = slices.Clone(c.Quarantined)
	for i := range c.Quarantined {
		c.Quarantined[i].Stack = ""
	}
	return c
}

// resultDiff names the Result fields a and b disagree on ("" if none),
// comparing the Obs snapshots by their deterministic counters only.
func resultDiff(a, b *core.Result) string {
	if b == nil {
		return "no result"
	}
	ca, cb := canonical(a), canonical(b)
	va, vb := reflect.ValueOf(ca), reflect.ValueOf(cb)
	var diff []string
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			diff = append(diff, fmt.Sprintf("%s: %v != %v", va.Type().Field(i).Name, va.Field(i), vb.Field(i)))
		}
	}
	if da, db := a.Obs.DeterministicCounters(), b.Obs.DeterministicCounters(); !reflect.DeepEqual(da, db) {
		diff = append(diff, fmt.Sprintf("Obs counters: %v != %v", da, db))
	}
	if a.Obs != nil && b.Obs != nil && a.Obs.PM != b.Obs.PM {
		diff = append(diff, fmt.Sprintf("Obs PM counters: %+v != %+v", a.Obs.PM, b.Obs.PM))
	}
	return strings.Join(diff, "; ")
}

// hasTailCrashPoint reports whether checking w journals a fence outside any
// syscall.
func hasTailCrashPoint(t *testing.T, cfg core.Config, w workload.Workload) bool {
	t.Helper()
	var buf bytes.Buffer
	j := obs.NewJournal(&buf)
	cfg.Tracer = obs.NewTracer(j, 0, 0)
	if _, err := core.RunContext(context.Background(), cfg, w); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	events, _, err := obs.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return slices.ContainsFunc(events, func(e obs.Event) bool {
		return e.Type == "span" && e.Name == "fence" && e.Sys < 0 && e.States > 0
	})
}

func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func reversed[T any](s []T) []T {
	out := slices.Clone(s)
	slices.Reverse(out)
	return out
}

// TestPrefixMemoServedCounter: the memo-served counter reports sharing on a
// seq-2 sample, in the -stats counters line and as a /debug/metrics series,
// and two consecutive Run calls with one Config serve exactly as many states
// — each call starts with an empty memo, so nothing carries over.
func TestPrefixMemoServedCounter(t *testing.T) {
	sys, _ := SystemByName("nova")
	cfg := Options{Bugs: bugs.None(), Obs: obs.New()}.ConfigFor(sys)
	suite := ace.Seq2()[:112]
	var served [2]int64
	for i := range served {
		c, _, err := Run(context.Background(), cfg, suite)
		if err != nil {
			t.Fatal(err)
		}
		served[i] = c.Obs.Count(obs.CtrMemoServed)
		if i == 0 {
			var metrics bytes.Buffer
			c.Obs.WriteMetrics(&metrics)
			if !strings.Contains(c.Obs.Render(0), fmt.Sprintf("memo-served=%d", served[i])) ||
				!strings.Contains(metrics.String(), fmt.Sprintf("\nchipmunk_memo_served_total %d\n", served[i])) {
				t.Errorf("memo-served=%d missing from -stats or /debug/metrics", served[i])
			}
		}
	}
	if served[0] == 0 || served[0] != served[1] {
		t.Fatalf("memo-served over two Run calls = %v, want equal and > 0", served)
	}
}

// TestCheckersArePrefixPure holds the shipped contracts to the Checker's
// prefix-purity obligation (core/contract.go): every workload is checked
// twice, once with its contract built from the full RunEnv and once through
// a wrapping factory that builds the same contract, for each crash state,
// from the RunEnv cut to k = max(Sys+1, AckedOps) — ops, oracle states and
// op results past the bound removed, the name blanked. Any Finding that
// differs shows up as a differing violation. The cut contract's runs go
// through one prefix memo too, so it also judges the observations the memo
// serves, which it reads from a contract built on an empty RunEnv.
func TestCheckersArePrefixPure(t *testing.T) {
	for _, c := range []struct {
		name  string
		fs    string
		opts  Options
		suite []workload.Workload
	}{
		{"oracle/nova", "nova", Options{Bugs: bugs.AllSet()}, ace.Seq1()},
		{"oracle/pmfs", "pmfs", Options{Bugs: bugs.AllSet()}, ace.Seq1()},
		{"kv/nova", "nova", Options{Bugs: bugs.None(), App: "kv", AppBugs: kvstore.Bugs{DropSyncFlush: true}}, ace.KV()},
		{"kv/pmfs", "pmfs", Options{Bugs: bugs.AllSet(), App: "kv", AppBugs: kvstore.Bugs{AcceptBadCRC: true}}, ace.KV()},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			sys, _ := SystemByName(c.fs)
			c.opts.Obs = obs.New()
			cfg := c.opts.ConfigFor(sys)
			inner := cfg.Checker
			if inner == nil {
				inner = core.NewOracleChecker
			}
			cut := cfg
			cut.Checker = func(env core.RunEnv) core.Checker { return &prefixBound{env: env, inner: inner} }
			memo := core.NewPrefixMemo()
			findings, served := 0, int64(0)
			for _, w := range c.suite {
				want, err := core.RunContext(context.Background(), cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.RunContext(context.Background(), cut, w)
				if err != nil {
					t.Fatal(err)
				}
				if d := resultDiff(want, got); d != "" {
					t.Errorf("%s: a contract read past its prefix: %s", w.Name, d)
				}
				shared, err := memo.Run(context.Background(), cut, w)
				if err != nil {
					t.Fatal(err)
				}
				if d := resultDiff(want, shared); d != "" {
					t.Errorf("%s: a served observation judged past its prefix: %s", w.Name, d)
				}
				findings += len(want.Violations)
				served += shared.Obs.Count(obs.CtrObservationsServed)
			}
			if findings == 0 || served == 0 {
				t.Fatalf("%d findings, %d observations served: the comparison is vacuous", findings, served)
			}
		})
	}
}

// prefixBound checks each crash state with inner's contract built from its
// RunEnv cut to the state's prefix bound.
type prefixBound struct {
	env   core.RunEnv
	inner core.CheckerFactory
}

func (p *prefixBound) Name() string { return "prefix-bound" }

// cut builds inner's contract from the RunEnv cut to cctx's prefix bound.
func (p *prefixBound) cut(cctx *core.CheckContext) core.Checker {
	k := max(cctx.Sys+1, cctx.AckedOps)
	env := p.env
	env.Workload = workload.Workload{Ops: env.Workload.Ops[:k:k]}
	env.OracleStates = env.OracleStates[: k+1 : k+1]
	env.OpResults = env.OpResults[:k:k]
	return p.inner(env)
}

// The observation and the probe come from a contract that sees no RunEnv,
// the judgement from one that sees the cut RunEnv.
func (p *prefixBound) Observe(fs vfs.FS, in *core.Interner) core.Observation {
	return p.inner(core.RunEnv{}).Observe(fs, in)
}

func (p *prefixBound) Judge(o core.Observation, cctx *core.CheckContext) *core.Finding {
	return p.cut(cctx).Judge(o, cctx)
}

func (p *prefixBound) Probe(fs vfs.FS, o core.Observation) *core.Finding {
	return p.inner(core.RunEnv{}).Probe(fs, o)
}
