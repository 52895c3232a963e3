package report

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// CampaignSummary is the distributed-run record persisted next to the bug
// reports: which campaign produced them, how the suite was sharded, and
// what the control plane saw. The struct is deliberately plain values (no
// campaign package types) so report stays importable from anywhere.
type CampaignSummary struct {
	CampaignID string
	FS         string
	Suite      string
	SuiteHash  string
	Workloads  int
	Shards     int
	ShardSize  int

	// Control-plane history: shards credited from the checkpoint at
	// startup, failed dispatch attempts re-dispatched, at-most-once
	// discards, fingerprint-mismatch rejections, result bodies rejected at
	// the wire (truncated/corrupt/checksum mismatch), and granted lease
	// extensions.
	Resumed      int
	Redispatched int
	Duplicates   int
	Rejected     int
	BadPayloads  int
	Heartbeats   int
	// PerWorker counts shards credited per worker ID.
	PerWorker map[string]int

	// Quarantined lists the shard-quarantine ledger: shards that exhausted
	// their dispatch attempts and were removed from the campaign. A
	// non-empty list means the census is partial (degraded), and the listed
	// slices went unchecked until re-run with -retry-quarantined.
	Quarantined []QuarantinedShard

	// Fingerprint is the deterministic census identity — equal to the
	// serial run's fingerprint by the determinism contract, so two
	// CAMPAIGN.txt files from different cluster topologies diff clean.
	Fingerprint string
}

// QuarantinedShard is one shard-quarantine ledger entry, in plain values
// (mirrors campaign.ShardQuarantine without importing it).
type QuarantinedShard struct {
	Shard    int
	Start    int
	End      int
	Worker   string
	Err      string
	Attempts int
}

// WriteCampaignSummary persists the summary as CAMPAIGN.txt under the
// report root and returns its path.
func (w *Writer) WriteCampaignSummary(s CampaignSummary) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "# Chipmunk distributed campaign %s\n\n", s.CampaignID)
	fmt.Fprintf(&b, "file system:      %s\n", s.FS)
	fmt.Fprintf(&b, "suite:            %s (%d workloads, fingerprint %s)\n", s.Suite, s.Workloads, s.SuiteHash)
	fmt.Fprintf(&b, "shards:           %d x %d workloads\n", s.Shards, s.ShardSize)
	fmt.Fprintf(&b, "resumed:          %d shards from checkpoint\n", s.Resumed)
	fmt.Fprintf(&b, "re-dispatched:    %d expired leases\n", s.Redispatched)
	fmt.Fprintf(&b, "duplicates:       %d results discarded (at-most-once)\n", s.Duplicates)
	fmt.Fprintf(&b, "rejected:         %d fingerprint mismatches\n", s.Rejected)
	fmt.Fprintf(&b, "bad payloads:     %d result bodies rejected at the wire\n", s.BadPayloads)
	fmt.Fprintf(&b, "heartbeats:       %d lease extensions granted\n", s.Heartbeats)
	workers := make([]string, 0, len(s.PerWorker))
	for wkr := range s.PerWorker {
		workers = append(workers, wkr)
	}
	sort.Strings(workers)
	b.WriteString("\nshards credited per worker:\n")
	for _, wkr := range workers {
		fmt.Fprintf(&b, "  %-24s %d\n", wkr, s.PerWorker[wkr])
	}
	if len(s.Quarantined) > 0 {
		fmt.Fprintf(&b, "\nDEGRADED — quarantined shards (census excludes these slices; re-run with -retry-quarantined):\n")
		for _, q := range s.Quarantined {
			fmt.Fprintf(&b, "  shard %d [%d,%d): %d failed attempts, worker %q: %s\n",
				q.Shard, q.Start, q.End, q.Attempts, q.Worker, q.Err)
		}
	}
	if s.Fingerprint != "" {
		fmt.Fprintf(&b, "\ncensus fingerprint (matches the serial run byte-for-byte):\n%s\n",
			indent(strings.TrimRight(s.Fingerprint, "\n"), "  "))
	}
	path := filepath.Join(w.root, "CAMPAIGN.txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
