package report

import (
	"os"
	"testing"

	"chipmunk/internal/campaign"
	"chipmunk/internal/lease"
)

// campaignGolden is CAMPAIGN.txt for the campaign TestCampaignSummaryGolden
// renders, as the renderer wrote it when the summary still went through a
// field-by-field copy of the campaign's values.
const campaignGolden = `# Chipmunk distributed campaign c93b3bc9bec561198

file system:      nova
suite:            seq2 (3136 workloads, fingerprint de417f2b8ab3441d)
units:            56 trie subtrees (≤ 98 workloads)
resumed:          3 shards from checkpoint
re-dispatched:    2 expired leases
duplicates:       1 results discarded (at-most-once)
rejected:         0 fingerprint mismatches
bad payloads:     1 result bodies rejected at the wire
heartbeats:       7 lease extensions granted

shards credited per worker:
  w0                       30
  w1                       22

DEGRADED — quarantined shards (census excludes their workloads; re-run with -retry-quarantined):
  shard 17 [1666,1764): 3 failed attempts, worker "w1": chaos: poisoned shard 17

census fingerprint (matches the serial run byte-for-byte):
  workloads=3038 states=88000 deduped=12 truncated=0 fences=9000 max-inflight=7 inflight=100/50 violations=0 suppressed-quarantine=0
  obs states-checked=88000
`

// TestCampaignSummaryGolden: CAMPAIGN.txt renders from the campaign's own
// values, byte for byte, for a campaign of two workers with one
// quarantined shard.
func TestCampaignSummaryGolden(t *testing.T) {
	w, err := NewWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	info := campaign.SpecInfo{
		CampaignID: "c93b3bc9bec561198",
		Spec:       campaign.Spec{FS: "nova", Bugs: "none", Suite: "seq2", Workers: 1},
		SuiteHash:  "de417f2b8ab3441d", Shards: 56, ShardSize: 98, Workloads: 3136,
	}
	st := campaign.Stats{
		Counters: lease.Counters{
			Granted: 60, Redispatched: 2, Duplicates: 1, BadPayloads: 1, Heartbeats: 7,
			PerWorker: map[string]int{"w1": 22, "w0": 30},
		},
		Shards: 56, Done: 55, Resumed: 3, ShardsQuarantined: 1,
	}
	quarantined := []campaign.ShardQuarantine{{
		Shard: 17, Start: 1666, End: 1764, SuiteHash: "de417f2b8ab3441d",
		Worker: "w1", Err: "chaos: poisoned shard 17", Attempts: 3,
	}}
	fingerprint := "workloads=3038 states=88000 deduped=12 truncated=0 fences=9000 max-inflight=7 inflight=100/50 violations=0 suppressed-quarantine=0\n" +
		"obs states-checked=88000\n"
	path, err := w.WriteCampaignSummary(info, st, quarantined, fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != campaignGolden {
		t.Fatalf("CAMPAIGN.txt:\n%s\nwant:\n%s", got, campaignGolden)
	}
}
