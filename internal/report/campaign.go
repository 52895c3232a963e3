package report

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"chipmunk/internal/campaign"
)

// WriteCampaignSummary persists CAMPAIGN.txt under the report root and
// returns its path: the distributed-run record beside the bug reports.
// It names the campaign that produced them and how its suite was cut
// (info), what the control plane saw (st), the shard-quarantine ledger and
// the census fingerprint. A non-empty ledger means the census is partial
// (degraded): the listed units went unchecked until re-run with
// -retry-quarantined. The fingerprint equals the serial run's by the
// determinism contract, so two CAMPAIGN.txt files from different cluster
// topologies diff clean.
func (w *Writer) WriteCampaignSummary(info campaign.SpecInfo, st campaign.Stats,
	quarantined []campaign.ShardQuarantine, fingerprint string) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "# Chipmunk distributed campaign %s\n\n", info.CampaignID)
	fmt.Fprintf(&b, "file system:      %s\n", info.Spec.FS)
	fmt.Fprintf(&b, "suite:            %s (%d workloads, fingerprint %s)\n", info.Spec.Suite, info.Workloads, info.SuiteHash)
	fmt.Fprintf(&b, "units:            %d trie subtrees (≤ %d workloads)\n", info.Shards, info.ShardSize)
	fmt.Fprintf(&b, "resumed:          %d shards from checkpoint\n", st.Resumed)
	fmt.Fprintf(&b, "re-dispatched:    %d expired leases\n", st.Redispatched)
	fmt.Fprintf(&b, "duplicates:       %d results discarded (at-most-once)\n", st.Duplicates)
	fmt.Fprintf(&b, "rejected:         %d fingerprint mismatches\n", st.Rejected)
	fmt.Fprintf(&b, "bad payloads:     %d result bodies rejected at the wire\n", st.BadPayloads)
	fmt.Fprintf(&b, "heartbeats:       %d lease extensions granted\n", st.Heartbeats)
	workers := make([]string, 0, len(st.PerWorker))
	for wkr := range st.PerWorker {
		workers = append(workers, wkr)
	}
	sort.Strings(workers)
	b.WriteString("\nshards credited per worker:\n")
	for _, wkr := range workers {
		fmt.Fprintf(&b, "  %-24s %d\n", wkr, st.PerWorker[wkr])
	}
	if len(quarantined) > 0 {
		fmt.Fprintf(&b, "\nDEGRADED — quarantined shards (census excludes their workloads; re-run with -retry-quarantined):\n")
		for _, q := range quarantined {
			fmt.Fprintf(&b, "  %s\n", q)
		}
	}
	if fingerprint != "" {
		fmt.Fprintf(&b, "\ncensus fingerprint (matches the serial run byte-for-byte):\n%s\n",
			indent(strings.TrimRight(fingerprint, "\n"), "  "))
	}
	path := filepath.Join(w.root, "CAMPAIGN.txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
