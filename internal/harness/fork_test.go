package harness

import (
	"context"
	"fmt"
	"hash/maphash"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

// stateSeed keys the oracle-state digests of one test binary.
var stateSeed = maphash.MakeSeed()

// stateDigest hashes every field of every file of st.
func stateDigest(st vfs.State) uint64 {
	paths := make([]string, 0, len(st))
	for p := range st {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var h maphash.Hash
	h.SetSeed(stateSeed)
	for _, p := range paths {
		f := st[p]
		fmt.Fprintf(&h, "%q %d %d %d %x %q %q\n", f.Path, f.Type, f.Nlink, f.Size, f.Data, f.Entries, f.Xattrs)
	}
	return h.Sum64()
}

// stateLedger wraps a contract to record every oracle state a run's RunEnv
// holds, with its digest when the run's contract was built — before any of
// its crash states was checked. With scribble, the contract also writes
// into the first state of its run whenever it judges a crash state.
type stateLedger struct {
	mu       sync.Mutex
	states   []vfs.State
	digests  []uint64
	seen     map[uintptr]int // states by map identity: how many runs hold each
	inner    core.CheckerFactory
	scribble bool
}

func (l *stateLedger) factory(env core.RunEnv) core.Checker {
	l.mu.Lock()
	for _, st := range env.OracleStates {
		id := reflect.ValueOf(st).Pointer()
		if l.seen[id]++; l.seen[id] == 1 {
			l.states = append(l.states, st)
			l.digests = append(l.digests, stateDigest(st))
		}
	}
	l.mu.Unlock()
	return &ledgerChecker{Checker: l.inner(env), env: env, scribble: l.scribble}
}

// changed counts the recorded states whose digest moved, and shared how
// many of them more than one run held.
func (l *stateLedger) check() (changed, shared int) {
	for i, st := range l.states {
		if stateDigest(st) != l.digests[i] {
			changed++
		}
		if l.seen[reflect.ValueOf(st).Pointer()] > 1 {
			shared++
		}
	}
	return changed, shared
}

type ledgerChecker struct {
	core.Checker
	env      core.RunEnv
	scribble bool
}

func (c *ledgerChecker) Judge(o core.Observation, cctx *core.CheckContext) *core.Finding {
	if c.scribble {
		c.env.OracleStates[0]["/scribble"] = vfs.FileState{Path: "/scribble"}
	}
	return c.Checker.Judge(o, cctx)
}

// TestPrefixForkOracleStatesReadOnly: the oracle states of a fork point's
// prefix are shared read-only by every run that starts from it, so a
// contract that wrote into one would move the verdicts of runs that are
// not its own. Over a seq-2-dax slice on both forking systems, each run's
// oracle states are hashed when its contract is built and again after the
// Run; none may move, and some must have been shared. A contract that
// writes into its first state from Judge must be caught.
func TestPrefixForkOracleStatesReadOnly(t *testing.T) {
	suite := ace.Seq2Dax()[:240]
	for _, name := range []string{"ext4-dax", "xfs-dax"} {
		for _, scribble := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/scribble=%v", name, scribble), func(t *testing.T) {
				t.Parallel()
				sys, _ := SystemByName(name)
				cfg := Options{Bugs: bugs.None()}.ConfigFor(sys)
				l := &stateLedger{seen: map[uintptr]int{}, inner: core.NewOracleChecker, scribble: scribble}
				cfg.Checker = l.factory
				if _, _, err := Run(context.Background(), cfg, suite); err != nil {
					t.Fatal(err)
				}
				changed, shared := l.check()
				if shared == 0 {
					t.Error("no oracle state was shared between runs: nothing forked")
				}
				if scribble && changed == 0 {
					t.Error("a contract wrote into its oracle states and no digest moved")
				}
				if !scribble && changed != 0 {
					t.Errorf("%d of %d oracle states moved during the Run", changed, len(l.states))
				}
			})
		}
	}
}

// renameFlagged is a contract that reports every crash state of a workload
// whose ops up to the crash include a rename: a "bug" on the forking
// systems, which have none of their own. It reads only the prefix it may.
func renameFlagged(env core.RunEnv) core.Checker { return renameChecker{env.Workload} }

type renameChecker struct{ w workload.Workload }

func (renameChecker) Name() string { return "rename-flag" }

func (renameChecker) Observe(vfs.FS, *core.Interner) core.Observation { return nil }
func (renameChecker) Probe(vfs.FS, core.Observation) *core.Finding    { return nil }

func (c renameChecker) Judge(_ core.Observation, cctx *core.CheckContext) *core.Finding {
	k := max(cctx.Sys+1, cctx.AckedOps)
	for _, op := range c.w.Ops[:k] {
		if op.Kind == workload.OpRename {
			return &core.Finding{Kind: core.VAppContract, Contract: "rename-flag", Detail: "rename"}
		}
	}
	return nil
}

// TestPrefixForkStopOnFirstBugKeepsSuiteOrder: WithStopOnFirstBug counts
// workloads to the first bug in suite order, so Run keeps suite order under
// it instead of the trie order it forks in. Over permuted suites on NOVA
// with bug 5 and on ext4-dax with a contract that flags renames, a
// serial Run stops at the suite index, with the census and violations, of
// a loop of core.RunContext calls that stops at the first buggy workload.
func TestPrefixForkStopOnFirstBugKeepsSuiteOrder(t *testing.T) {
	nova, _ := SystemByName("nova")
	ext4, _ := SystemByName("ext4-dax")
	ext4cfg := Options{Bugs: bugs.None()}.ConfigFor(ext4)
	ext4cfg.Checker = renameFlagged
	for _, c := range []struct {
		name  string
		cfg   core.Config
		suite []workload.Workload
	}{
		{"nova/bug-5/seq1", Options{Bugs: bugs.Of(5)}.ConfigFor(nova), ace.Seq1()},
		{"ext4-dax/rename-flag/seq2dax", ext4cfg, ace.Seq2Dax()[:480]},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			suite := slices.Clone(c.suite)
			rand.New(rand.NewSource(7)).Shuffle(len(suite), func(i, j int) { suite[i], suite[j] = suite[j], suite[i] })
			ctx := context.Background()
			want := &Census{}
			var wantViol []core.Violation
			stop := -1
			for i, w := range suite {
				res, err := core.RunContext(ctx, c.cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				want.Add(res)
				wantViol = append(wantViol, res.Violations...)
				if res.Buggy() {
					stop = i
					break
				}
			}
			t.Logf("first bug at suite index %d of %d", stop, len(suite))
			if stop < 1 {
				t.Fatalf("the first bug is at suite index %d: the case shows nothing", stop)
			}
			var ran []int
			rc := runConfig{workers: 1, stopOnce: true, results: func(i int, _ *core.Result) { ran = append(ran, i) }}
			got, viol, err := rc.run(ctx, c.cfg, suite)
			if err != nil {
				t.Fatal(err)
			}
			want.Elapsed = got.Elapsed
			if !slices.Equal(ran, identity(stop+1)) {
				t.Errorf("ran suite indices %v, want 0..%d", ran, stop)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("census %+v, want %+v", *got, *want)
			}
			if !reflect.DeepEqual(viol, wantViol) {
				t.Errorf("%d violations differ from the reference's %d", len(viol), len(wantViol))
			}
		})
	}
}

// TestPrefixForkPlanUnits holds Run's plan to its shape: a permutation of
// the suite (suite order under stop-on-first-bug) cut into units of at most
// a unitsPerWorker-th of a worker's share, so no worker idles at the tail
// behind one large subtree; serially, one unit.
func TestPrefixForkPlanUnits(t *testing.T) {
	for _, suite := range [][]workload.Workload{ace.Seq2(), ace.Seq2Dax(), ace.Seq3Metadata()[3000:5000], ace.KV()} {
		n := len(suite)
		for _, workers := range []int{1, 2, 8} {
			for _, stopOnce := range []bool{false, true} {
				size := max(1, n/(unitsPerWorker*workers))
				switch {
				case workers == 1:
					size = n
				case stopOnce:
					size = 1
				}
				p := newPlan(suite, size, stopOnce)
				order := slices.Clone(p.Order)
				if !stopOnce {
					slices.Sort(order)
				}
				for pos, i := range order {
					if i != pos {
						t.Fatalf("n=%d workers=%d stopOnce=%v: order is no permutation (or not suite order)", n, workers, stopOnce)
					}
				}
				if p.Units[0] != 0 || p.Units[len(p.Units)-1] != n {
					t.Fatalf("n=%d workers=%d stopOnce=%v: units %v do not span the suite", n, workers, stopOnce, p.Units)
				}
				for u := 0; u+1 < len(p.Units); u++ {
					if l := p.Units[u+1] - p.Units[u]; l < 1 || l > size {
						t.Fatalf("n=%d workers=%d stopOnce=%v: unit %d has %d positions, want 1..%d", n, workers, stopOnce, u, l, size)
					}
				}
			}
		}
	}
}
