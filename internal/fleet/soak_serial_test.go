package fleet

import (
	"context"
	"testing"

	"chipmunk/internal/campaign"
)

// TestSerialSoakNoPanic drives a full 1200-exec soak through one serial
// worker with NO panic recovery between the engine and the test, so any
// engine panic fails the test with a stack instead of being absorbed by
// the round-retry path and surfacing as a dropped round.
//
// Regression: round 46 of exactly this soak used to panic inside nova's
// Pwrite ("assignment to entry in nil map") when a fuzzed workload wrote
// through a descriptor whose inode had been unlinked and its inode number
// reused by a later mkdir. The fix defers inode destruction to the last
// close (openFDs refcount), matching real NOVA's eviction-time reclaim.
func TestSerialSoakNoPanic(t *testing.T) {
	spec := Normalize(campaign.Spec{
		FS: "nova", Bugs: "4,5", Cap: 2,
		Fuzz: true, FuzzSeed: 1,
		BudgetExecs: 1200,
	})
	coord, err := NewCoordinator(CoordinatorConfig{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close() //nolint:errcheck // in-memory coordinator
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	_, cfg, err := opts.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for {
		resp, err := coord.Lease(FuzzLeaseRequest{Worker: "serial", SpecHash: SpecHash(spec)})
		if err != nil {
			t.Fatal(err)
		}
		switch resp.Status {
		case campaign.LeaseDone:
			st := coord.Status()
			if st.Dropped != 0 {
				t.Fatalf("soak dropped %d rounds", st.Dropped)
			}
			if rounds == 0 {
				t.Fatal("soak finished without leasing any rounds")
			}
			return
		case LeaseRound:
			rounds++
			n, err := NewNode(cfg, resp.Seed, spec.App == "kv", resp.Corpus)
			if err != nil {
				t.Fatal(err)
			}
			d, err := n.RunRound(context.Background(), resp.Execs)
			if err != nil {
				t.Fatalf("round %d: %v", resp.Round, err)
			}
			res := &FuzzResult{
				Kind: ResultRound, Worker: "serial", SpecHash: SpecHash(spec),
				Round: resp.Round, Execs: d.Execs, StatesChecked: d.StatesChecked, QuarantinedChecks: d.QuarantinedChecks,
				NewEntries: d.NewEntries, Violations: d.Violations, Obs: d.Obs,
			}
			res.Sum = ResultSum(res)
			if _, err := coord.Credit(res); err != nil {
				t.Fatal(err)
			}
		case LeaseMinimize:
			// Close each minimization task unverified; this test is about
			// the round path, and the census falls back to the original
			// reproducer for unverified shrinks.
			res := &FuzzResult{
				Kind: ResultMinimize, Worker: "serial", SpecHash: SpecHash(spec),
				MinID: resp.MinID, MinCluster: resp.MinCluster,
				MinText: resp.MinText, MinVerified: false,
			}
			res.Sum = ResultSum(res)
			if _, err := coord.Credit(res); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("unexpected lease status %q", resp.Status)
		}
	}
}
