package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"chipmunk/internal/core"
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
		{"CreditResponse", result(&ShardPayload{Shard: 0, Worker: "w0", SuiteHash: hash, Census: core.Census{Workloads: 1, StatesChecked: 9, Fences: 2}}), `{"accepted":true,"duplicate":false,"done":false}` + "\n"},
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

// TestCensusRoundTrip fills every core.Census field with a distinct
// non-zero value, by reflection so a new field is filled too, and requires
// the census back unchanged from a unit's payload through its JSON encoding
// and Fold: no field may be missing from the wire, from Merge or from the
// ledger sort. The same values as the build before core.Census wrote them
// (parent, below) must encode to the same shard line and resume to the same
// census. A new field changes that line; lines without it must then still
// resume, with the field zero.
func TestCensusRoundTrip(t *testing.T) {
	var want core.Census
	n := 0
	fillDistinct(t, reflect.ValueOf(&want).Elem(), &n)
	b, err := json.Marshal(&ShardPayload{Shard: 0, Worker: "w0", SuiteHash: "h", Census: want})
	if err != nil {
		t.Fatal(err)
	}
	var p ShardPayload
	if err := json.Unmarshal(b, &p); err != nil {
		t.Fatal(err)
	}
	if got, _ := Fold([]*ShardPayload{&p}, nil); !reflect.DeepEqual(*got, want) {
		t.Errorf("census through the wire and Fold:\n got %+v\nwant %+v", *got, want)
	}

	const parent = `{"type":"shard","payload":{"shard":0,"worker":"w0","suite_hash":"h","workloads":2,"states_checked":3,"states_deduped":4,"truncated_fences":5,"fences":6,"max_in_flight":7,"in_flight_sum":8,"in_flight_n":9,"violation_total":10,"suppressed_quarantine":11,"elapsed_ns":12,"quarantined":[{"Workload":"s15","Fence":16,"Sys":17,"Phase":18,"Rank":19,"Subset":[21],"StateKey":22,"Kind":23,"Detail":"s24","Stack":"s25"}],"obs":{"stages":{"s29":{"count":31,"nanos":32,"max_nanos":33,"buckets":[35,36,37,38,39,40,41,42,43,44,45,46,47,48,49,50,51,52,53,54,55,56,57,58,59,60,61,62,63,64,65,66,67,68,69,70,71,72,73,74,75]}},"counters":{"s77":78},"pm":{"store_bytes":80,"nt_bytes":81,"flushes":82,"lines_flushed":83,"fences":84,"sim_nanos":85}},"sum":"080458bf580463e7"}}`
	p.Sum = PayloadSum(&p)
	if line, _ := json.Marshal(ckptLine{Type: "shard", Payload: &p}); string(line) != parent {
		t.Errorf("shard line:\n got %s\nwant %s", line, parent)
	}
	path := filepath.Join(t.TempDir(), "parent.ckpt")
	if err := os.WriteFile(path, []byte(parent+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := LoadCheckpoint(path)
	if err != nil || len(st.Payloads) != 1 {
		t.Fatalf("checkpoint: %d payloads, %v", len(st.Payloads), err)
	}
	if got, _ := Fold(st.Payloads, nil); !reflect.DeepEqual(*got, want) {
		t.Errorf("census resumed from the older line:\n got %+v\nwant %+v", *got, want)
	}
}

// fillDistinct sets every field under v to a distinct non-zero value: one
// element per slice and map, n counting the values handed out.
func fillDistinct(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(t, v.Field(i), n)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillDistinct(t, v.Index(0), n)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(t, v.Elem(), n)
	case reflect.Map:
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fillDistinct(t, k, n)
		fillDistinct(t, e, n)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(k, e)
	default:
		t.Fatalf("fillDistinct: no value for a %s", v.Type())
	}
}
