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
// the lease-engine extraction wrote them, with the header and lease bounds
// of the trie cut.
func TestWireAndCheckpointFormat(t *testing.T) {
	spec := testSpec()
	spec.Max = 56 // two units: [0,31) and [31,56)
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
	coord, err := NewCoordinator(CoordinatorConfig{
		Spec: spec, ShardRetries: 1, LeaseTTL: time.Minute, CheckpointPath: ckpt,
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
		{"LeaseResponse", post(PathLease, LeaseRequest{Worker: "w0", SuiteHash: hash, Cut: coord.Info().Cut}), `{"status":"lease","end":31,"ttl_ns":60000000000}` + "\n"},
		{"HeartbeatResponse", post(PathHeartbeat, HeartbeatRequest{Worker: "w0", Shard: 0, SuiteHash: hash, StatesChecked: 3}), `{"extended":true,"ttl_ns":60000000000}` + "\n"},
		{"HeartbeatResponse (refused)", post(PathHeartbeat, HeartbeatRequest{Worker: "w1", Shard: 0, SuiteHash: hash}), `{"extended":false}` + "\n"},
		{"CreditResponse", result(&ShardPayload{Shard: 0, Worker: "w0", SuiteHash: hash, Workloads: 1, StatesChecked: 9, Fences: 2}), `{"accepted":true,"duplicate":false,"done":false}` + "\n"},
		{"LeaseResponse (shard 1)", post(PathLease, LeaseRequest{Worker: "w1", SuiteHash: hash, Cut: coord.Info().Cut}), `{"status":"lease","shard":1,"start":31,"end":56,"ttl_ns":60000000000}` + "\n"},
		{"CreditResponse (quarantined)", result(&ShardPayload{Shard: 1, Worker: "w1", SuiteHash: hash, Err: "engine: boom"}), `{"accepted":false,"duplicate":false,"quarantined":true,"done":true}` + "\n"},
		{"LeaseResponse (done)", post(PathLease, LeaseRequest{Worker: "w0", SuiteHash: hash, Cut: coord.Info().Cut}), `{"status":"done"}` + "\n"},
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
		`{"type":"campaign","campaign_id":"c0de057b7353cfd34","suite_hash":"421ed5dcc3c81fc6","fs":"nova","suite":"seq2","workloads":56,"shards":2,"cut":"a1db330a5c4a29d2"}`,
		`{"type":"shard","payload":{"shard":0,"worker":"w0","suite_hash":"421ed5dcc3c81fc6","workloads":1,"states_checked":9,"states_deduped":0,"truncated_fences":0,"fences":2,"max_in_flight":0,"in_flight_sum":0,"in_flight_n":0,"violation_total":0,"suppressed_quarantine":0,"elapsed_ns":0,"sum":"c8cfebcfc7dd8c72"}}`,
		`{"type":"quarantine","quarantine":{"shard":1,"start":31,"end":56,"suite_hash":"421ed5dcc3c81fc6","worker":"w1","err":"engine: boom","attempts":1}}`,
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

	// A shard line as builds that counted sandbox retries wrote it, field
	// and checksum included, still resumes as credited.
	old := filepath.Join(t.TempDir(), "old.ckpt")
	oldShard := `{"type":"shard","payload":{"shard":0,"worker":"w0","suite_hash":"421ed5dcc3c81fc6","workloads":1,"states_checked":9,"states_deduped":0,"truncated_fences":0,"fences":2,"max_in_flight":0,"in_flight_sum":0,"in_flight_n":0,"violation_total":0,"suppressed_quarantine":0,"retried_checks":0,"elapsed_ns":0,"sum":"de4ee0d5696f21f9"}}`
	if err := os.WriteFile(old, []byte(want[0]+"\n"+oldShard+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err := NewCoordinator(CoordinatorConfig{Spec: spec, ShardRetries: 1, LeaseTTL: time.Minute, CheckpointPath: old})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if !coordShardDone(resumed, 0) || coordShardDone(resumed, 1) {
		t.Errorf("the older shard line did not resume as shard 0's credit alone")
	}
	if cen, _ := resumed.Merged(); cen.StatesChecked != 9 || cen.Fences != 2 {
		t.Errorf("resumed census %d states, %d fences; want the line's 9 and 2", cen.StatesChecked, cen.Fences)
	}
}
