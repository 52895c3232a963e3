package core

import (
	"time"

	"chipmunk/internal/obs"
)

// Census aggregates engine runs: a suite's (harness.Run), a campaign unit's
// on the wire and the campaign's fold (internal/campaign), a fuzzer's execs.
// Add folds one Result in and Merge folds another census in; they are the
// only code that adds census fields together. Every field is a sum, a
// maximum or a ledger append, so folding is order-independent but for the
// ledger's order, which callers that need suite order restore by sorting.
// The JSON names are a distributed campaign's wire and checkpoint format.
type Census struct {
	Workloads     int `json:"workloads"`
	StatesChecked int `json:"states_checked"`
	// StatesDeduped counts crash states skipped because their replayed
	// image was identical to an already-checked state at the same crash
	// point; TruncatedFences counts fences whose exhaustive enumeration
	// fell back to the safety cap. Both are reported, never silent.
	StatesDeduped   int `json:"states_deduped"`
	TruncatedFences int `json:"truncated_fences"`
	Fences          int `json:"fences"`
	MaxInFlight     int `json:"max_in_flight"`
	// InFlightSum and InFlightN are the raw accumulators behind AvgInFlight:
	// the sum of nonzero in-flight counts, weighted by how often each size
	// occurred, and the number of observations. Folding them, not the
	// average, keeps a folded census's average exactly the serial one.
	InFlightSum int `json:"in_flight_sum"`
	InFlightN   int `json:"in_flight_n"`
	// Violations counts the violations reported; the ledger itself travels
	// beside the census.
	Violations int `json:"violation_total"`
	// SuppressedQuarantine counts quarantined states past the per-run
	// ledger cap — reported, never silent.
	SuppressedQuarantine int           `json:"suppressed_quarantine"`
	Elapsed              time.Duration `json:"elapsed_ns"`
	// Quarantined is the quarantine ledger: crash states whose check
	// panicked or hung inside the sandbox. Every quarantined state is also
	// counted as a VPanic/VTimeout violation — the census completes,
	// nothing is silently dropped.
	Quarantined []Quarantine `json:"quarantined,omitempty"`
	// Obs is the merged per-stage metrics snapshot of the runs — nil unless
	// Config.Obs was set. Merging is commutative (sums, maxima,
	// histogram-bucket adds), so serial and parallel runs of the same suite
	// agree on every deterministic counter.
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// Add folds one engine run into the census.
func (c *Census) Add(r *Result) {
	c.Workloads++
	c.StatesChecked += r.StatesChecked
	c.StatesDeduped += r.StatesDeduped
	c.TruncatedFences += r.TruncatedFences
	c.Fences += r.Fences
	c.MaxInFlight = max(c.MaxInFlight, r.MaxInFlight)
	for n, cnt := range r.InFlightCounts {
		if n > 0 {
			c.InFlightSum += n * cnt
			c.InFlightN += cnt
		}
	}
	c.Violations += len(r.Violations)
	c.SuppressedQuarantine += r.SuppressedQuarantine
	c.Quarantined = append(c.Quarantined, r.Quarantined...)
	c.mergeObs(r.Obs)
}

// Merge folds o into the census. Nothing of o is shared afterwards: Merge
// into a zero Census is a copy no later fold of o writes.
func (c *Census) Merge(o Census) {
	c.Workloads += o.Workloads
	c.StatesChecked += o.StatesChecked
	c.StatesDeduped += o.StatesDeduped
	c.TruncatedFences += o.TruncatedFences
	c.Fences += o.Fences
	c.MaxInFlight = max(c.MaxInFlight, o.MaxInFlight)
	c.InFlightSum += o.InFlightSum
	c.InFlightN += o.InFlightN
	c.Violations += o.Violations
	c.SuppressedQuarantine += o.SuppressedQuarantine
	c.Elapsed += o.Elapsed
	c.Quarantined = append(c.Quarantined, o.Quarantined...)
	c.mergeObs(o.Obs)
}

func (c *Census) mergeObs(s *obs.Snapshot) {
	if s == nil {
		return
	}
	if c.Obs == nil {
		c.Obs = &obs.Snapshot{}
	}
	c.Obs.Merge(*s)
}

// AvgInFlight is the mean nonzero in-flight write count over every fence
// (the §3.2 census).
func (c *Census) AvgInFlight() float64 {
	if c.InFlightN == 0 {
		return 0
	}
	return float64(c.InFlightSum) / float64(c.InFlightN)
}
