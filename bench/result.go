package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// meta is the run hygiene every output file records.
type meta struct {
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
	Smoke      bool   `json:"smoke,omitempty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Workers    int    `json:"workers"`
	GitSHA     string `json:"git_sha"`
	LoadAvg1   string `json:"loadavg_1min"`
	Started    string `json:"started"`
}

func newMeta(seed int64, traced, smoke bool) meta {
	return meta{
		Seed:       seed,
		Traced:     traced,
		Smoke:      smoke,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Workers:    fanout(),
		GitSHA:     gitSHA(),
		LoadAvg1:   loadAvg1(),
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

// fanout is the worker/connection count of the two distributed workloads.
func fanout() int { return min(2, runtime.NumCPU()) }

// gitSHA is best effort: the driver's checkout is not a git repository.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func loadAvg1() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	if f := strings.Fields(string(b)); len(f) > 0 {
		return f[0]
	}
	return "unknown"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's output file (out/result-<workload>.json, or
// result-trace-<workload>.json for the traced run).
type result struct {
	Meta     meta   `json:"meta"`
	Workload string `json:"workload"`
	// SeedIndependent is set where the seed cannot reach the inputs: the
	// campaign's suite never crosses the wire, and the fleet soak pins
	// FuzzSeed (see README, "Seeds").
	SeedIndependent bool `json:"seed_independent,omitempty"`
	// Reps is R, the number of timed repetitions behind each median.
	Reps int `json:"reps"`
	// Samples holds the raw per-repetition (per-pass for setup_s) values of
	// every end-to-end metric; -compare takes its spreads from them.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// SampleCounts is n for every per-layer percentile, and Tail the highest
	// percentile that n supports (ten samples beyond it).
	SampleCounts map[string]int     `json:"sample_counts,omitempty"`
	Tail         map[string]float64 `json:"tail_percentile,omitempty"`

	EndToEnd map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`

	// Attempted counts units of work (crash states, shards, rounds) and
	// Failed the ones that went wrong plus every output-check mismatch;
	// FailedShare = Failed/Attempted is the fifth end-to-end metric.
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	FailedShare float64  `json:"failed_share"`
	Correct     bool     `json:"correct"`
	Messages    []string `json:"messages,omitempty"`

	// Fingerprint is campaign.Fingerprint of the census (the rendered
	// FUZZCENSUS.md hash for the fleet soak). Counts are reported, never
	// pinned, so a pruning change does not have to edit the benchmark.
	Fingerprint string         `json:"fingerprint"`
	Counts      map[string]int `json:"counts,omitempty"`
}

// fail records an output-check mismatch: one failed unit and a message.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.Messages = append(r.Messages, fmt.Sprintf(format, args...))
}

// seal derives the verdict from the counts. A run that attempted nothing
// is not correct: it measured nothing.
func (r *result) seal() {
	if r.Attempted < 1 {
		r.Attempted = 1
		r.fail("no unit of work was attempted")
	}
	r.FailedShare = float64(r.Failed) / float64(r.Attempted)
	r.Correct = r.Failed == 0
}

// driverLine is the last line of standard output, in the shape the driver
// reads: the end-to-end metrics of an untraced run, the per-layer metrics
// of a traced one.
func (r *result) driverLine() ([]byte, error) {
	metrics := r.EndToEnd
	if r.Meta.Traced {
		metrics = r.PerLayer
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// setMetrics fills a metric map from values, taking units from defs and
// reading 0 for any name values does not have.
func setMetrics(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

// printMetrics lists every metric by name with its unit, in table order.
func printMetrics(w *strings.Builder, workload string, defs []metricDef, m map[string]metricValue) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-20s %-36s %14.6g %s\n", workload, d.Name, m[d.Name].Value, d.Unit)
	}
}

func resultPath(outdir, workload string, traced bool) string {
	name := "result-" + workload + ".json"
	if traced {
		name = "result-trace-" + workload + ".json"
	}
	return filepath.Join(outdir, name)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// summary is the parent's -out file: one result per workload plus the
// checks only the parent can make.
type summary struct {
	Meta      meta               `json:"meta"`
	Workloads map[string]*result `json:"workloads"`
	// CrossChecks lists parent-side mismatches (distributed != serial).
	CrossChecks []string `json:"cross_checks,omitempty"`
	Correct     bool     `json:"correct"`
}

// crossCheck makes the assertions that span workloads: the distributed
// campaign's census must be byte-identical to the serial run of the same
// suite. Each mismatch counts as a failed unit of the campaign workload.
func (s *summary) crossCheck() {
	serial, dist := s.Workloads["seq2-nova"], s.Workloads["campaign-seq2-nova"]
	if serial != nil && dist != nil && serial.Fingerprint != dist.Fingerprint {
		msg := fmt.Sprintf("campaign-seq2-nova fingerprint differs from seq2-nova: distributed %q, serial %q",
			firstLine(dist.Fingerprint), firstLine(serial.Fingerprint))
		s.CrossChecks = append(s.CrossChecks, msg)
		dist.fail("%s", msg)
		dist.seal()
	}
	s.Correct = true
	for _, r := range s.Workloads {
		s.Correct = s.Correct && r.Correct
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
