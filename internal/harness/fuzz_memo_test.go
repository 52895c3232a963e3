package harness

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
	"chipmunk/internal/fuzz"
	"chipmunk/internal/obs"
	"chipmunk/internal/pmem"
	"chipmunk/internal/workload"
)

// TestFuzzPrefixMemoMatchesUnshared is the fuzzer's prefix-memo
// differential. Over every system, bug set and fault mode, plus nova with
// the KV vocabulary, each of 40 seeded StepDelta candidates — run through
// the Fuzzer's memo — must carry exactly the Result a memo-less
// core.RunContext gives it. Each candidate then runs through a memo the test
// owns, followed by a copy with every op field its Format line omits
// perturbed: the memo keys ops by that line, so the copy is served the
// candidate's crash points, and mutation writes such fields into any op
// kind. Both must match their unshared runs. The first three buggy
// candidates are then
// minimized through one shared memo, as a fleet worker's batch of tasks
// does, and unshared: the minimized text, the exec count and the
// re-verification Result must agree.
func TestFuzzPrefixMemoMatchesUnshared(t *testing.T) {
	type fuzzCase struct {
		name string
		cfg  core.Config
		kv   bool
		// strong: the system has crash points inside syscalls, so candidates
		// built from shared prefixes must be served some.
		strong bool
	}
	var cases []fuzzCase
	for _, sys := range Systems() {
		for _, bm := range []struct {
			name string
			set  bugs.Set
		}{{"no-bugs", bugs.None()}, {"all-bugs", bugs.AllSet()}} {
			for _, fm := range []struct {
				name   string
				faults *pmem.FaultConfig
			}{{"clean", nil}, {"faults", pmem.DefaultFaults(5)}} {
				opts := Options{Bugs: bm.set, Faults: fm.faults, Cap: 2, Obs: obs.New()}
				cases = append(cases, fuzzCase{name: fmt.Sprintf("%s/%s/%s", sys.Name, bm.name, fm.name),
					cfg: opts.ConfigFor(sys), strong: !sys.Weak})
			}
		}
	}
	nova, _ := SystemByName("nova")
	kv := Options{Bugs: bugs.AllSet(), App: "kv", Cap: 2, Obs: obs.New()}.ConfigFor(nova)
	cases = append(cases, fuzzCase{name: "nova/all-bugs/kv", cfg: kv, kv: true, strong: true})

	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			unshared := func(w workload.Workload) *core.Result {
				t.Helper()
				res, err := core.RunContext(ctx, c.cfg, w)
				if err != nil {
					t.Fatalf("unshared %s: %v", w.Name, err)
				}
				return res
			}
			fz := fuzz.New(c.cfg, int64(i+1), nil)
			fz.KV = c.kv
			own := core.NewPrefixMemo()
			var served int64
			var buggy []workload.Workload
			for step := 0; step < 40; step++ {
				d, err := fz.StepDelta()
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if diff := resultDiff(unshared(d.Workload), d.Result); diff != "" {
					t.Errorf("step %d: %s differs from the unshared run: %s", step, d.Workload.Name, diff)
				}
				served += d.Result.Obs.Count(obs.CtrMemoServed)

				p := perturbOmitted(d.Workload)
				if workload.Format(p) != workload.Format(d.Workload) {
					t.Fatalf("step %d: the perturbed copy has another key:\n%s", step, workload.Format(p))
				}
				for k, w := range []workload.Workload{d.Workload, p} {
					got, err := own.Run(ctx, c.cfg, w)
					if err != nil {
						t.Fatalf("step %d: %s through the test's memo: %v", step, w.Name, err)
					}
					if diff := resultDiff(unshared(w), got); diff != "" {
						t.Errorf("step %d: %s (perturbed copy: %v) through the test's memo differs from its unshared run: %s",
							step, w.Name, k == 1, diff)
					}
				}
				if d.Result.Buggy() && len(buggy) < 3 {
					buggy = append(buggy, d.Workload)
				}
			}
			if c.strong && served == 0 {
				t.Errorf("the fuzzer's memo served no crash state")
			}

			batch := core.NewPrefixMemo()
			for _, w := range buggy {
				min, execs, err := fuzz.Minimize(ctx, batch, c.cfg, w, 30)
				if err != nil {
					t.Fatal(err)
				}
				wantMin, wantExecs, err := fuzz.Minimize(ctx, nil, c.cfg, w, 30)
				if err != nil {
					t.Fatal(err)
				}
				if workload.Format(min) != workload.Format(wantMin) || execs != wantExecs {
					t.Errorf("%s: minimized through the memo to %d execs:\n%s\nunshared to %d execs:\n%s",
						w.Name, execs, workload.Format(min), wantExecs, workload.Format(wantMin))
					continue
				}
				got, err := batch.Run(ctx, c.cfg, min)
				if err != nil {
					t.Fatal(err)
				}
				if diff := resultDiff(unshared(min), got); diff != "" {
					t.Errorf("%s: re-verification differs from the unshared run: %s", w.Name, diff)
				}
			}
		})
	}
}

// perturbOmitted returns a copy of w in which every op field that the op's
// Format line omits holds another value.
func perturbOmitted(w workload.Workload) workload.Workload {
	perturb := []func(*workload.Op){
		func(op *workload.Op) { op.Off += 4097 },
		func(op *workload.Op) { op.Size += 1001 },
		func(op *workload.Op) { op.Seed++ },
		func(op *workload.Op) { op.Path += "/p" },
		func(op *workload.Op) { op.Path2 += "/q" },
		func(op *workload.Op) { op.FDSlot = 1 - op.FDSlot },
		func(op *workload.Op) { op.FDSlot -= 3 },
	}
	out := workload.Workload{Name: w.Name, Ops: slices.Clone(w.Ops)}
	for i := range out.Ops {
		line := string(workload.AppendOp(nil, w.Ops[i]))
		for _, set := range perturb {
			op := out.Ops[i]
			set(&op)
			if string(workload.AppendOp(nil, op)) == line {
				out.Ops[i] = op
			}
		}
	}
	return out
}
