package campaign

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestWireAndCheckpointFormat pins the bytes a worker and a resumed
// coordinator of another build would have to parse: one line of each
// checkpoint record kind and the JSON of each wire response, as the parent of
// the lease-engine extraction wrote them.
func TestWireAndCheckpointFormat(t *testing.T) {
	spec := testSpec()
	spec.Max = 8 // two shards of 4
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
	coord, err := NewCoordinator(CoordinatorConfig{
		Spec: spec, ShardSize: 4, ShardRetries: 1, LeaseTTL: time.Minute, CheckpointPath: ckpt,
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
	result := func(p *ShardPayload) string {
		p.Sum = PayloadSum(p)
		return post(PathResult, p)
	}
	wire := []struct{ name, got, want string }{
		{"LeaseResponse", post(PathLease, LeaseRequest{Worker: "w0", SuiteHash: hash}), `{"status":"lease","end":4,"ttl_ns":60000000000}` + "\n"},
		{"HeartbeatResponse", post(PathHeartbeat, HeartbeatRequest{Worker: "w0", Shard: 0, SuiteHash: hash, StatesChecked: 3}), `{"extended":true,"ttl_ns":60000000000}` + "\n"},
		{"HeartbeatResponse (refused)", post(PathHeartbeat, HeartbeatRequest{Worker: "w1", Shard: 0, SuiteHash: hash}), `{"extended":false}` + "\n"},
		{"CreditResponse", result(&ShardPayload{Shard: 0, Worker: "w0", SuiteHash: hash, Workloads: 4, StatesChecked: 9, Fences: 2}), `{"accepted":true,"duplicate":false,"done":false}` + "\n"},
		{"LeaseResponse (shard 1)", post(PathLease, LeaseRequest{Worker: "w1", SuiteHash: hash}), `{"status":"lease","shard":1,"start":4,"end":8,"ttl_ns":60000000000}` + "\n"},
		{"CreditResponse (quarantined)", result(&ShardPayload{Shard: 1, Worker: "w1", SuiteHash: hash, Err: "engine: boom"}), `{"accepted":false,"duplicate":false,"quarantined":true,"done":true}` + "\n"},
		{"LeaseResponse (done)", post(PathLease, LeaseRequest{Worker: "w0", SuiteHash: hash}), `{"status":"done"}` + "\n"},
	}
	for _, w := range wire {
		if w.got != w.want {
			t.Errorf("%s on the wire:\n got %q\nwant %q", w.name, w.got, w.want)
		}
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`{"type":"campaign","campaign_id":"cb92ce552e54dc463","suite_hash":"5d6a7d634ea24a3f","fs":"nova","suite":"seq1","workloads":8,"shards":2,"shard_size":4}`,
		`{"type":"shard","payload":{"shard":0,"worker":"w0","suite_hash":"5d6a7d634ea24a3f","workloads":4,"states_checked":9,"states_deduped":0,"truncated_fences":0,"fences":2,"max_in_flight":0,"in_flight_sum":0,"in_flight_n":0,"violation_total":0,"suppressed_quarantine":0,"retried_checks":0,"elapsed_ns":0,"sum":"cdcc4a0a596ec8af"}}`,
		`{"type":"quarantine","quarantine":{"shard":1,"start":4,"end":8,"suite_hash":"5d6a7d634ea24a3f","worker":"w1","err":"engine: boom","attempts":1}}`,
		"", // every record ends in a newline
	}
	got := strings.Split(string(data), "\n")
	if len(got) != len(want) {
		t.Fatalf("checkpoint has %d lines, want %d:\n%s", len(got), len(want), data)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("checkpoint line %d:\n got %q\nwant %q", i, got[i], want[i])
		}
	}
}
