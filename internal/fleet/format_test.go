package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestWireAndCheckpointFormat pins the fleet's bytes on the wire and on disk
// the way the campaign twin does: one line of each checkpoint record kind
// and the JSON of both lease flavours, as the parent of the lease-engine
// extraction wrote them.
func TestWireAndCheckpointFormat(t *testing.T) {
	spec := fuzzTestSpec() // 8 rounds of 15, generations of 4
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	coord, err := NewCoordinator(CoordinatorConfig{
		Spec: spec, Retries: 1, LeaseTTL: time.Minute, CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord)
	defer srv.Close()
	hash := coord.Info().SuiteHash
	post := func(path string, body any) string {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %s %s (%v)", path, resp.Status, out, err)
		}
		return string(out)
	}
	lease := func(worker string) string {
		return post(PathFuzzLease, FuzzLeaseRequest{Worker: worker, SpecHash: hash})
	}
	result := func(p *FuzzResult) string {
		p.SpecHash = hash
		p.Sum = ResultSum(p)
		return post(PathFuzzResult, p)
	}
	viol := func(kind string) FuzzViolation {
		return FuzzViolation{Kind: kind, FS: "nova", Prefix: "mkdir A", Workload: "w", Text: "mkdir A\n"}
	}
	entry := CorpusEntry{Text: "mkdir A\n", Sigs: []uint64{7, 9}}
	entry.Sum = EntrySum(entry)

	wire := []struct{ name, got, want string }{
		{"FuzzLeaseResponse (round)", lease("w0"), `{"status":"round","execs":15,"seed":5833679380957638813,"base":0,"cursor":0,"ttl_ns":60000000000}` + "\n"},
		{"HeartbeatResponse", post(PathFuzzHeartbeat, FuzzHeartbeat{Worker: "w0", SpecHash: hash, Kind: ResultRound, ID: 0, Execs: 5}), `{"extended":true,"ttl_ns":60000000000}` + "\n"},
		{"CreditResponse", result(&FuzzResult{Kind: ResultRound, Worker: "w0", Round: 0, Execs: 15, StatesChecked: 40,
			NewEntries: []CorpusEntry{entry}, Violations: []FuzzViolation{viol("atomicity-violation"), viol("synchrony-violation")}}), `{"accepted":true,"duplicate":false,"done":false}` + "\n"},
		{"FuzzLeaseResponse (round 1)", lease("w0"), `{"status":"round","round":1,"execs":15,"seed":4839782808629744545,"base":0,"cursor":0,"ttl_ns":60000000000}` + "\n"},
		{"CreditResponse (dropped)", result(&FuzzResult{Kind: ResultRound, Worker: "w0", Round: 1, Err: "engine: boom"}), `{"accepted":false,"duplicate":false,"quarantined":true,"done":false}` + "\n"},
	}
	for r := 2; r < 4; r++ {
		lease("w0")
		result(&FuzzResult{Kind: ResultRound, Worker: "w0", Round: r, Execs: 15})
	}
	// Generation 0 is resolved: its fold opened one minimization task per
	// cluster, and they lease ahead of generation 1's rounds.
	wire = append(wire, []struct{ name, got, want string }{
		{"FuzzLeaseResponse (minimize)", lease("w0"), `{"status":"minimize","base":0,"cursor":0,"min_cluster":"atomicity-violation|nova|mkdir A","min_text":"mkdir A\n","min_budget":20,"ttl_ns":60000000000}` + "\n"},
		{"CreditResponse (minimize)", result(&FuzzResult{Kind: ResultMinimize, Worker: "w0", MinID: 0,
			MinCluster: viol("atomicity-violation").ClusterKey(), MinText: "mkdir A\n", MinExecs: 3, MinVerified: true}), `{"accepted":true,"duplicate":false,"done":false}` + "\n"},
	}...)
	lease("w0")
	wire = append(wire, struct{ name, got, want string }{"CreditResponse (minimize dropped)",
		result(&FuzzResult{Kind: ResultMinimize, Worker: "w0", MinID: 1,
			MinCluster: viol("synchrony-violation").ClusterKey(), Err: "engine: boom"}), `{"accepted":false,"duplicate":false,"quarantined":true,"done":false}` + "\n"})
	wire = append(wire, struct{ name, got, want string }{"FuzzLeaseResponse (generation 1)", lease("w1"), `{"status":"round","round":4,"execs":15,"seed":3047264704176347588,"corpus":[{"text":"mkdir A\n","sigs":[7,9],"sum":"921974c55ebfb82c"}],"base":0,"cursor":1,"ttl_ns":60000000000}` + "\n"})
	// A shared unit's result carries the (kind, FS) pairs its re-run tripped;
	// the wire body and the checkpoint record's payload are the same bytes.
	tripped := &FuzzResult{Kind: ResultMinimize, Worker: "w0", SpecHash: hash, MinID: 2,
		MinCluster: viol("atomicity-violation").ClusterKey(), MinText: "mkdir A\n", MinExecs: 3, MinVerified: true,
		MinTripped: &[]string{"atomicity-violation|nova", "synchrony-violation|nova"}}
	tripped.Sum = ResultSum(tripped)
	rec, _ := json.Marshal(fleetCkptLine{Type: "min", Payload: tripped})
	wire = append(wire, struct{ name, got, want string }{"min record (tripped set)", string(rec),
		`{"type":"min","payload":{"kind":"minimize","worker":"w0","spec_hash":"fz47f27475cbcb79ec","min_id":2,"min_cluster":"atomicity-violation|nova|mkdir A","min_text":"mkdir A\n","min_execs":3,"min_verified":true,"min_tripped":["atomicity-violation|nova","synchrony-violation|nova"],"sum":"6ed49aee7c978864"}}`})
	for _, w := range wire {
		if w.got != w.want {
			t.Errorf("%s on the wire:\n got %q\nwant %q", w.name, w.got, w.want)
		}
	}
	coord.Drain()
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	// The header records the soak's wall-clock start; everything else is fixed.
	data = regexp.MustCompile(`"start_unix_ns":\d+`).ReplaceAll(data, []byte(`"start_unix_ns":0`))
	want := []string{
		`{"type":"fleet","campaign_id":"fe8f8d523197bd1aa","spec_hash":"fz47f27475cbcb79ec","fs":"nova","round_execs":15,"gen_rounds":4,"budget_execs":120,"start_unix_ns":0}`,
		`{"type":"round","payload":{"kind":"round","worker":"w0","spec_hash":"fz47f27475cbcb79ec","execs":15,"states_checked":40,"new_entries":[{"text":"mkdir A\n","sigs":[7,9],"sum":"921974c55ebfb82c"}],"violations":[{"kind":"atomicity-violation","fs":"nova","prefix":"mkdir A","workload":"w","text":"mkdir A\n"},{"kind":"synchrony-violation","fs":"nova","prefix":"mkdir A","workload":"w","text":"mkdir A\n"}],"sum":"64c74804f262cbae"}}`,
		`{"type":"drop","round":1,"worker":"w0","err":"engine: boom","attempts":1}`,
		"", "", // rounds 2 and 3: two more "round" records
		`{"type":"min","payload":{"kind":"minimize","worker":"w0","spec_hash":"fz47f27475cbcb79ec","min_cluster":"atomicity-violation|nova|mkdir A","min_text":"mkdir A\n","min_execs":3,"min_verified":true,"sum":"891c810331444667"}}`,
		`{"type":"mindrop","min_cluster":"synchrony-violation|nova|mkdir A"}`,
		"", // every record ends in a newline
	}
	got := strings.Split(string(data), "\n")
	if len(got) != len(want) {
		t.Fatalf("checkpoint has %d lines, want %d:\n%s", len(got), len(want), data)
	}
	for i := range want {
		if want[i] != "" && got[i] != want[i] {
			t.Errorf("checkpoint line %d:\n got %q\nwant %q", i, got[i], want[i])
		}
	}
}
