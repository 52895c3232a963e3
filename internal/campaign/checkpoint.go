package campaign

import (
	"encoding/json"
	"fmt"

	"chipmunk/internal/lease"
)

// The campaign's records in its lease.Log checkpoint: one header line
// identifying the campaign (suite fingerprint, spec summary, shard geometry)
// followed by one line per credited shard, each carrying the full
// ShardPayload, and one per quarantined shard. Restarting with -resume folds
// the recorded shards as if their workers had just reported, and only the
// missing shards are leased out again.

// ckptLine is the on-disk record: Type discriminates the header from shard
// credits and shard quarantines so the file stays self-describing and
// future-extensible.
type ckptLine struct {
	Type string `json:"type"` // "campaign" (header), "shard", or "quarantine"
	// Header fields.
	CampaignID string `json:"campaign_id,omitempty"`
	SuiteHash  string `json:"suite_hash,omitempty"`
	FS         string `json:"fs,omitempty"`
	Suite      string `json:"suite,omitempty"`
	Workloads  int    `json:"workloads,omitempty"`
	Shards     int    `json:"shards,omitempty"`
	ShardSize  int    `json:"shard_size,omitempty"`
	// Shard credit.
	Payload *ShardPayload `json:"payload,omitempty"`
	// Shard quarantine (type "quarantine"): the ledger entry, persisted so
	// a resumed campaign carries quarantined shards forward instead of
	// silently re-running or re-crediting them.
	Quarantine *ShardQuarantine `json:"quarantine,omitempty"`
}

// CheckpointState is what a resumed coordinator recovers from disk.
type CheckpointState struct {
	Header *ckptLine
	// Payloads holds the recorded shard credits in file order (duplicates
	// impossible: the coordinator credits each shard at most once before
	// appending).
	Payloads []*ShardPayload
	// Quarantined holds the recorded shard-quarantine entries in file
	// order. A shard may appear here AND in Payloads when a later
	// -retry-quarantined run credited it: the credit wins.
	Quarantined []*ShardQuarantine
	// Skipped counts corrupt or torn lines the tolerant loader dropped —
	// reported, never silent.
	Skipped int
}

// LoadCheckpoint reads the checkpoint at path (see lease.ReadLog for what is
// tolerated). A missing file returns an empty state and no error (first run).
func LoadCheckpoint(path string) (*CheckpointState, error) {
	st := &CheckpointState{}
	var err error
	st.Skipped, err = lease.ReadLog("campaign", path, func(line []byte) bool {
		var rec ckptLine
		if json.Unmarshal(line, &rec) != nil {
			return false
		}
		switch {
		case rec.Type == "campaign":
			if st.Header == nil {
				st.Header = &rec
			}
		case rec.Type == "shard" && rec.Payload != nil:
			st.Payloads = append(st.Payloads, rec.Payload)
		case rec.Type == "quarantine" && rec.Quarantine != nil:
			st.Quarantined = append(st.Quarantined, rec.Quarantine)
		default:
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// Validate checks a recovered checkpoint against the campaign about to
// resume it. A mismatched suite fingerprint or shard geometry means the
// file belongs to a different campaign — refusing is the only safe answer.
func (st *CheckpointState) Validate(info SpecInfo) error {
	if st.Header == nil {
		return nil // empty or headerless file: nothing to contradict
	}
	h := st.Header
	if h.SuiteHash != info.SuiteHash {
		return fmt.Errorf("campaign: checkpoint suite fingerprint mismatch: file has %s (fs=%s suite=%s), campaign is %s (fs=%s suite=%s) — wrong checkpoint or diverged generator",
			h.SuiteHash, h.FS, h.Suite, info.SuiteHash, info.Spec.FS, info.Spec.Suite)
	}
	if h.Shards != info.Shards || h.ShardSize != info.ShardSize {
		return fmt.Errorf("campaign: checkpoint shard geometry mismatch: file has %d shards of %d, campaign wants %d of %d — rerun with the original -shard-size",
			h.Shards, h.ShardSize, info.Shards, info.ShardSize)
	}
	return nil
}
