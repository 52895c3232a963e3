package fleet

import (
	"encoding/json"
	"fmt"

	"chipmunk/internal/lease"
)

// The fleet's records in its lease.Log checkpoint. Because round results are
// deterministic and the corpus fold is a pure function of the
// credited/dropped round set, replaying the recorded lines through the same
// fold state machine reconstructs the coordinator's exact corpus, coverage,
// and minimization queue — a resumed soak continues byte-for-byte where the
// dead one stopped.

// fleetCkptLine is the on-disk record. Type discriminates:
//
//	"fleet"   header (spec hash, geometry, soak start time)
//	"round"   credited round result (full FuzzResult)
//	"min"     credited minimization result
//	"drop"    round dropped after spending its dispatch attempts
//	"mindrop" minimization task dropped likewise
//
// Drops MUST be persisted: a dropped round resolves its generation, and the
// corpus every later generation fuzzed against depends on that resolution.
// A resume that forgot a drop would wait forever for a round nobody will
// credit — or worse, re-run it and fold a different corpus than the one the
// recorded later rounds actually used.
type fleetCkptLine struct {
	Type string `json:"type"`
	// Header fields.
	CampaignID     string `json:"campaign_id,omitempty"`
	SpecHash       string `json:"spec_hash,omitempty"`
	FS             string `json:"fs,omitempty"`
	RoundExecs     int    `json:"round_execs,omitempty"`
	GenRounds      int    `json:"gen_rounds,omitempty"`
	BudgetExecs    int    `json:"budget_execs,omitempty"`
	BudgetNanos    int64  `json:"budget_ns,omitempty"`
	StartUnixNanos int64  `json:"start_unix_ns,omitempty"`
	// Round / minimization credit.
	Payload *FuzzResult `json:"payload,omitempty"`
	// Round drop.
	Round    int    `json:"round,omitempty"`
	Worker   string `json:"worker,omitempty"`
	Err      string `json:"err,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	// Minimization drop.
	MinCluster string `json:"min_cluster,omitempty"`
}

// CheckpointState is what a resumed fleet coordinator recovers from disk.
type CheckpointState struct {
	Header *fleetCkptLine
	// Rounds and Mins hold the credited results in file order; Drops (the
	// "drop" records as written) and MinDrops (cluster keys) the recorded
	// give-ups.
	Rounds   []*FuzzResult
	Mins     []*FuzzResult
	Drops    []fleetCkptLine
	MinDrops []string
	// Skipped counts corrupt or torn lines the tolerant loader dropped.
	Skipped int
}

// LoadCheckpoint reads the checkpoint at path (see lease.ReadLog for what is
// tolerated). Missing file = fresh soak, no error.
func LoadCheckpoint(path string) (*CheckpointState, error) {
	st := &CheckpointState{}
	var err error
	st.Skipped, err = lease.ReadLog("fleet", path, func(line []byte) bool {
		var rec fleetCkptLine
		if json.Unmarshal(line, &rec) != nil {
			return false
		}
		switch {
		case rec.Type == "fleet":
			if st.Header == nil {
				st.Header = &rec
			}
		case rec.Type == "round" && rec.Payload != nil:
			st.Rounds = append(st.Rounds, rec.Payload)
		case rec.Type == "min" && rec.Payload != nil:
			st.Mins = append(st.Mins, rec.Payload)
		case rec.Type == "drop":
			st.Drops = append(st.Drops, rec)
		case rec.Type == "mindrop":
			st.MinDrops = append(st.MinDrops, rec.MinCluster)
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

// Validate checks a recovered checkpoint against the soak about to resume
// it. The spec hash covers every knob that shapes the deterministic fold —
// seed, budgets, round and generation geometry — so a single comparison
// refuses every flavor of "wrong checkpoint".
func (st *CheckpointState) Validate(specHash string) error {
	if st.Header == nil {
		return nil
	}
	if st.Header.SpecHash != specHash {
		return fmt.Errorf(
			"fleet: checkpoint spec fingerprint mismatch: file has %s (fs=%s), soak is %s — wrong checkpoint or changed fuzz spec",
			st.Header.SpecHash, st.Header.FS, specHash)
	}
	return nil
}
