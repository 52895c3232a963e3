package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.median / quantiles(n=4).
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3}, 2, 1, 3},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{3, 1}, 2, 0.5, 3.5},
		{[]float64{5.77, 5.69, 5.75, 4.92, 5.25, 6.1, 5.0, 5.5, 5.9, 5.3}, 5.595, 5.1875, 5.8025},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		if got := median(c.xs); !near(got, c.med) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3}); !near(got, 1) {
		t.Errorf("spread = %v, want (3-1)/2", got)
	}
	if median(nil) != 0 || spread(nil) != 0 {
		t.Error("empty input must read 0")
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for p, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 1: 100} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	// The highest percentile with at least ten samples beyond it.
	for n, want := range map[int]float64{3: 0.5, 39: 0.5, 40: 0.75, 100: 0.9, 199: 0.9, 200: 0.95, 1000: 0.99, 3136: 0.99, 10000: 0.999} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestSelfTimeFromNestedTree(t *testing.T) {
	// root [0,100): a [10,40) with child a1 [15,25); b [30,70) overlapping a;
	// c [90,120) sticking out of the root.
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Name: "a", Start: 10, End: 40, Parent: 1},
		{ID: 3, Name: "a1", Start: 15, End: 25, Parent: 2},
		{ID: 4, Name: "b", Start: 30, End: 70, Parent: 1},
		{ID: 5, Name: "c", Start: 90, End: 120, Parent: 1},
		{ID: 6, Name: "other-root", Start: 0, End: 50},
	}
	self := selfTimes(spans)
	// Children cover [10,70) once and [90,100) clipped: 70 of the root's 100.
	want := map[int]int64{1: 30, 2: 20, 3: 10, 4: 40, 5: 30, 6: 50}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	byName := selfByName(spans, 1)
	if byName["a"] != 20 || byName["a1"] != 10 || byName["other-root"] != 0 {
		t.Errorf("selfByName = %v", byName)
	}

	// Sequential children: the tree's self times add up to the root exactly.
	seq := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Start: 0, End: 40, Parent: 1},
		{ID: 3, Start: 5, End: 35, Parent: 2},
		{ID: 4, Start: 40, End: 95, Parent: 1},
	}
	var sum int64
	for _, self := range selfByName(seq, 1) {
		sum += self
	}
	if sum != 100 {
		t.Errorf("self times under the root sum to %d, want the root's 100", sum)
	}
}

func TestTracerNilAndJSONL(t *testing.T) {
	var none *tracer
	id := none.begin("x", 0)
	none.finish(id)
	none.setRep(3)
	if id != 0 || none.snapshot() != nil {
		t.Fatal("a nil tracer must record nothing")
	}

	tr := newTracer("w")
	tr.setRep(1)
	root := tr.begin("census", 0)
	now := time.Now()
	tr.add(span{Name: "core.run", Parent: root, Worker: "w0", Unit: "shard 3", Bytes: 7}, now, now.Add(time.Millisecond))
	tr.finish(root)
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := writeJSONL(path, tr.snapshot()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 spans, got %d", len(lines))
	}
	var s span
	if err := json.Unmarshal([]byte(lines[1]), &s); err != nil {
		t.Fatal(err)
	}
	if s.Name != "core.run" || s.Parent != root || s.Workload != "w" || s.Rep != 1 || s.End-s.Start != int64(time.Millisecond) || s.Unit != "shard 3" {
		t.Errorf("span did not round-trip: %+v", s)
	}
}

func TestJudgeBounds(t *testing.T) {
	wall := metricDef{Name: "census_wall_s", Better: "lower", Bound: 0.25}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, x := range steady {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{6, 14, 8, 12, 10}
	cases := []struct {
		name string
		a, b []float64
		want string
	}{
		{"same", steady, steady, verdictOK},
		{"inside the bound", steady, scale(1 + wall.Bound*0.8), verdictOK},
		{"beyond the bound", steady, scale(1 + wall.Bound*1.2), verdictRegressed},
		{"better", steady, scale(0.5), verdictOK},
		{"spread wider than the bound", noisy, noisy, verdictUnresolved},
		{"noisy but every run better", noisy, scale(0.1), verdictOK},
		{"noisy and every run worse", steady, []float64{60, 140, 80, 120, 100}, verdictRegressed},
	}
	for _, c := range cases {
		if got := judge(wall, c.a, c.b); got.Verdict != c.want {
			t.Errorf("%s: verdict %s, want %s (%+v)", c.name, got.Verdict, c.want, got)
		}
	}
	higher := metricDef{Name: "x", Better: "higher", Bound: 0.1}
	if got := judge(higher, steady, scale(0.8)); got.Verdict != verdictRegressed {
		t.Errorf("higher-is-better drop: verdict %s", got.Verdict)
	}
	if got := judge(higher, steady, scale(1.5)); got.Verdict != verdictOK {
		t.Errorf("higher-is-better gain: verdict %s", got.Verdict)
	}

	// failed_share has an absolute bound of 0.
	clean, dirty := &result{}, &result{FailedShare: 1e-6}
	if judgeFailed(clean, clean).Verdict != verdictOK || judgeFailed(dirty, dirty).Verdict != verdictOK {
		t.Error("equal failed_share must be ok")
	}
	if judgeFailed(clean, dirty).Verdict != verdictRegressed {
		t.Error("any new failure must regress")
	}
}

// fakeSummary is a passing untraced summary with steady samples.
func fakeSummary(wallScale float64) *summary {
	s := &summary{Workloads: map[string]*result{}}
	for _, w := range workloads {
		r := &result{Workload: w.Name, Samples: map[string][]float64{}, Attempted: 10, Fingerprint: "fp"}
		for _, d := range endToEnd {
			r.Samples[d.Name] = []float64{1, 1.01, 0.99}
		}
		r.Samples["census_wall_s"] = []float64{wallScale, wallScale * 1.01, wallScale * 0.99}
		r.seal()
		s.Workloads[w.Name] = r
	}
	s.crossCheck()
	return s
}

func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, s *summary) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", fakeSummary(1))
	same := write("b.json", fakeSummary(1.02))
	slow := write("c.json", fakeSummary(1.5))
	var out bytes.Buffer
	if code := runCompare(&out, base, same); code != 0 {
		t.Errorf("agreeing sets: exit %d\n%s", code, out.String())
	}
	if rows := strings.Count(out.String(), "\n"); rows != 3+len(workloads)*(len(endToEnd)+1) {
		t.Errorf("want one row per (metric, workload), got %d lines:\n%s", rows, out.String())
	}
	out.Reset()
	if code := runCompare(&out, base, slow); code != 1 || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("50%% slower: exit %d\n%s", code, out.String())
	}
	if code := runCompare(&out, base, filepath.Join(dir, "missing.json")); code != 2 {
		t.Errorf("missing file: exit %d", code)
	}
}

func TestDoctoredFingerprintFailsTheRun(t *testing.T) {
	// Cross-repetition: a repetition whose census differs from the first.
	r := &result{Workload: "seq2-nova"}
	r.fold(1, repOut{Attempted: 100, Fingerprint: "workloads=3136 states=91430"})
	r.fold(2, repOut{Attempted: 100, Fingerprint: "workloads=3136 states=91431"})
	r.seal()
	if r.Correct || r.FailedShare <= 0 || exitCode(r.Correct) == 0 {
		t.Errorf("doctored repetition passed: %+v", r)
	}

	// Parent side: distributed must equal serial.
	s := fakeSummary(1)
	if !s.Correct || exitCode(s.Correct) != 0 {
		t.Fatalf("clean summary failed: %v", s.CrossChecks)
	}
	s.Workloads["campaign-seq2-nova"].Fingerprint = "doctored"
	s.crossCheck()
	dist := s.Workloads["campaign-seq2-nova"]
	if s.Correct || exitCode(s.Correct) == 0 || len(s.CrossChecks) != 1 || dist.FailedShare <= 0 || dist.Correct {
		t.Errorf("doctored campaign fingerprint passed: correct=%t checks=%v failed_share=%v", s.Correct, s.CrossChecks, dist.FailedShare)
	}

	// A run that attempted nothing measured nothing.
	empty := &result{}
	empty.seal()
	if empty.Correct || empty.Attempted < 1 {
		t.Errorf("empty run passed: %+v", empty)
	}
}

func TestResultRoundTrip(t *testing.T) {
	r := &result{
		Meta:      newMeta(7, false, true),
		Workload:  "sweep7",
		Reps:      3,
		Samples:   map[string][]float64{"census_wall_s": {1.5, 1.25, 1.75}},
		EndToEnd:  setMetrics(endToEnd, map[string]float64{"census_wall_s": 1.5, "setup_s": 0.25}),
		Attempted: 12, Fingerprint: "a\nb",
	}
	r.seal()
	path := resultPath(t.TempDir(), r.Workload, false)
	if err := writeJSON(path, r); err != nil {
		t.Fatal(err)
	}
	var back result
	if err := readJSON(path, &back); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(r)
	b, _ := json.Marshal(&back)
	if !bytes.Equal(a, b) {
		t.Errorf("result did not round-trip:\n%s\n%s", a, b)
	}
	if back.Meta.Seed != 7 || back.Meta.GoVersion == "" || back.Meta.NProc < 1 || back.Meta.Workers < 1 || back.Meta.GitSHA == "" || back.Meta.LoadAvg1 == "" {
		t.Errorf("run hygiene missing: %+v", back.Meta)
	}

	// The driver's line: exactly four keys, every end-to-end metric.
	line, err := r.driverLine()
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(line, &obj); err != nil {
		t.Fatal(err)
	}
	if len(obj) != 4 || obj["correct"] == nil || obj["attempted"] == nil || obj["failed"] == nil || obj["metrics"] == nil {
		t.Errorf("driver line keys: %s", line)
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(obj["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) || metrics["census_wall_s"] != (metricValue{1.5, "s"}) {
		t.Errorf("driver line metrics: %s", obj["metrics"])
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the Go tables —
// which -compare and the output take their names, units and bounds from —
// saying the same thing, inside the limits of the benchmark contract.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	var spec struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, tables say %d", spec.RunSeconds, runSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v", spec.Paths)
	}
	same := func(what string, got, want any) {
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(want)
		if !bytes.Equal(a, b) {
			t.Errorf("%s differ:\nBENCHMARK.json %s\ntables         %s", what, a, b)
		}
	}
	same("workloads", spec.Workloads, workloads)
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)

	if len(perLayer) != 86 || len(workloads) != 5 {
		t.Errorf("%d per-layer metrics and %d workloads, the issue fixes 86 and 5", len(perLayer), len(workloads))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 || (d.Better != "lower" && d.Better != "higher") || d.Bound > 0.25 {
			t.Errorf("metric outside the contract: %+v", d)
		}
		seen[d.Name] = true
	}
	for _, w := range workloads {
		if seen[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload outside the contract: %+v", w)
		}
		seen[w.Name] = true
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in s, lower is better")
	}
}

// TestSmoke drives every workload at smoke size, so that the tests break
// when a refactor removes a symbol the benchmark calls. The traced run makes
// an untraced repetition too; the timed path (medians over repetitions) is
// taken once, on the cheapest workload.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	smoke := func(name string, traced bool) *result {
		began := time.Now()
		res, err := runOne(options{workload: name, seed: 1, seconds: 1, trace: traced, smoke: true, outdir: dir, started: began})
		if err != nil {
			t.Fatalf("%s traced=%t: %v", name, traced, err)
		}
		t.Logf("%s traced=%t: %v, %d units", name, traced, time.Since(began).Round(time.Millisecond), res.Attempted)
		if !res.Correct || res.FailedShare != 0 || res.Attempted < 1 {
			t.Errorf("%s traced=%t: checks failed: %v", name, traced, res.Messages)
		}
		if res.Fingerprint == "" || len(res.Counts) == 0 {
			t.Errorf("%s traced=%t: no census identity", name, traced)
		}
		return res
	}

	timed := smoke("seq2dax-ext4", false)
	for _, d := range endToEnd {
		if timed.EndToEnd[d.Name].Value <= 0 || timed.EndToEnd[d.Name].Unit != d.Unit {
			t.Errorf("%s = %+v", d.Name, timed.EndToEnd[d.Name])
		}
	}

	sum := &summary{Workloads: map[string]*result{}}
	for _, w := range workloads {
		res := smoke(w.Name, true)
		sum.Workloads[w.Name] = res
		if len(res.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.Name, len(res.PerLayer), len(perLayer))
		}
		if fi, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".jsonl")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}
	}
	// Distributed == serial, on the same prefix of seq2.
	sum.crossCheck()
	if !sum.Correct {
		t.Errorf("cross-checks failed: %v", sum.CrossChecks)
	}

	everywhere := []string{"core.states_checked", "core.run_floor_us", "fs.mount_us", "pmem.device_new_us", "proc.peak_rss_mb"}
	for name, want := range map[string][]string{
		"seq2-nova":          {"harness.fanout_speedup_j2", "harness.inworkload_speedup_w2", "core.per_state_us"},
		"seq2dax-ext4":       {"core.record_s", "ace.generate_s"},
		"sweep7":             {"fs.winefs.wall_s", "app.kv_wall_s", "core.dedup_hit_ratio", "core.run_p50_ms"},
		"campaign-seq2-nova": {"campaign.shards", "campaign.parallel_efficiency", "campaign.worker_busy_share", "campaign.lease_srv_p50_us"},
		"fleet-fuzz-nova":    {"fleet.rounds", "fleet.clusters", "fuzz.step_p50_ms", "fleet.scaling_vs_serial", "report.fuzzcensus_render_ms"},
	} {
		for _, m := range append(want, everywhere...) {
			if sum.Workloads[name].PerLayer[m].Value <= 0 {
				t.Errorf("%s: %s = %v", name, m, sum.Workloads[name].PerLayer[m].Value)
			}
		}
	}
}
