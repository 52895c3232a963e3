package fleet

import (
	"html/template"
	"net/http"
	"time"

	"chipmunk/internal/campaign"
	"chipmunk/internal/lease"
)

// This file is the fleet coordinator's read-only observability surface: the
// live JSON soak view (GET /campaign/status), the stdlib-only
// auto-refreshing HTML dashboard rendered from the same snapshot
// (GET /campaign/dash), and — in coordinator.go — the Prometheus exposition
// of the merged collectors plus the fleet series (GET /debug/metrics).
// None of these mutate soak state: watching a soak is always safe.

// FuzzStatus is one point-in-time view of a fleet-fuzzing soak. All
// durations are seconds (JSON-friendly; no nanosecond fields to misread).
type FuzzStatus struct {
	CampaignID string `json:"campaign_id"`
	FS         string `json:"fs"`
	SpecHash   string `json:"spec_hash"`
	RoundExecs int    `json:"round_execs"`
	GenRounds  int    `json:"gen_rounds"`
	// Budget: exactly one of BudgetExecs / BudgetSec is nonzero.
	BudgetExecs int     `json:"budget_execs,omitempty"`
	BudgetSec   float64 `json:"budget_sec,omitempty"`

	// Round state machine counts; Rounds = Pending+Leased+Done+Dropped.
	// In duration mode Rounds grows a generation at a time until the
	// wall-clock budget closes.
	Rounds   int  `json:"rounds"`
	Pending  int  `json:"pending"`
	Leased   int  `json:"leased"`
	Done     int  `json:"done"`
	Dropped  int  `json:"dropped"`
	Resumed  int  `json:"resumed,omitempty"`
	Draining bool `json:"draining,omitempty"`

	// Generations folded so far; rounds of generation g only lease once
	// generation g-1 has folded (the barrier the corpus determinism rests on).
	Generations int `json:"generations"`

	// RoundMap is one character per round in round order: '.' pending,
	// 'r' leased (running), '#' done, 'X' dropped, with a '|' between
	// generations.
	RoundMap string `json:"round_map"`

	// Corpus/coverage as of the last fold; Execs and ExecsPerSec are the
	// tentpole throughput series (credited rounds only).
	CorpusSize    int     `json:"corpus_size"`
	CoverageEdges int     `json:"coverage_edges"`
	Execs         int     `json:"execs"`
	ExecsPerSec   float64 `json:"execs_per_sec"`
	StatesChecked int     `json:"states_checked"`
	ElapsedSec    float64 `json:"elapsed_sec"`

	// Bug census as of the credited rounds.
	DistinctBugs int `json:"distinct_bugs"`
	MinPending   int `json:"min_pending"`
	MinLeased    int `json:"min_leased"`
	MinDone      int `json:"min_done"`
	MinVerified  int `json:"min_verified"`

	Workers  []campaign.WorkerStatus `json:"workers,omitempty"`
	InFlight []FuzzLeaseStatus       `json:"in_flight,omitempty"`
}

// FuzzLeaseStatus is one in-flight lease (round or minimization task).
type FuzzLeaseStatus struct {
	Kind   string `json:"kind"` // "round" or "minimize"
	ID     int    `json:"id"`
	Worker string `json:"worker"`
	// AgeSec is time since the lease grant, BeatAgeSec since its last
	// heartbeat (also the grant when none arrived yet).
	AgeSec     float64 `json:"age_sec"`
	BeatAgeSec float64 `json:"beat_age_sec"`
	// Progress is the exec count the worker piggybacked on its last
	// heartbeat (rounds only).
	Progress int `json:"progress,omitempty"`
	Attempts int `json:"attempts,omitempty"`
}

// Status snapshots the soak for the dashboard. Expired leases are shown as
// the lease state machine last left them — reclaim happens on the next
// lease request, and a read-only status probe must not advance the machine.
func (c *Coordinator) Status() FuzzStatus {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := FuzzStatus{
		CampaignID:  c.info.CampaignID,
		FS:          c.spec.FS,
		SpecHash:    c.info.SuiteHash,
		RoundExecs:  c.spec.RoundExecs,
		GenRounds:   c.spec.GenRounds,
		BudgetExecs: c.spec.BudgetExecs,
		Rounds:      len(c.rounds.Slots),
		Resumed:     c.resumed,
		Draining:    c.draining,
		Generations: c.foldedGensLocked(),
		CorpusSize:  len(c.corpus),
		Execs:       c.execs,
		ElapsedSec:  now.Sub(c.started).Seconds(),
	}
	st.CoverageEdges = len(c.coverage)
	st.StatesChecked = c.statesChecked
	if c.spec.BudgetNanos > 0 {
		st.BudgetSec = time.Duration(c.spec.BudgetNanos).Seconds()
	}
	inFlight := func(kind string, id int, s *lease.Slot) {
		st.InFlight = append(st.InFlight, FuzzLeaseStatus{
			Kind: kind, ID: id, Worker: s.Worker,
			AgeSec:     now.Sub(s.LeasedAt).Seconds(),
			BeatAgeSec: now.Sub(s.LastBeat).Seconds(),
			Progress:   s.Progress, Attempts: s.Attempts,
		})
	}
	roundMap := make([]byte, 0, len(c.rounds.Slots)+len(c.rounds.Slots)/c.spec.GenRounds)
	for i := range c.rounds.Slots {
		if i > 0 && i%c.spec.GenRounds == 0 {
			roundMap = append(roundMap, '|')
		}
		s := &c.rounds.Slots[i]
		switch s.State {
		case lease.Pending:
			st.Pending++
			roundMap = append(roundMap, '.')
		case lease.Leased:
			st.Leased++
			roundMap = append(roundMap, 'r')
			inFlight(ResultRound, i, s)
		case lease.Done:
			st.Done++
			roundMap = append(roundMap, '#')
		case lease.Spent:
			st.Dropped++
			roundMap = append(roundMap, 'X')
		}
	}
	st.RoundMap = string(roundMap)
	if st.ElapsedSec > 0 {
		st.ExecsPerSec = float64(c.execs) / st.ElapsedSec
	}
	for i := range c.mins.Slots {
		s := &c.mins.Slots[i]
		switch s.State {
		case lease.Pending:
			st.MinPending++
		case lease.Leased:
			st.MinLeased++
			inFlight(ResultMinimize, i, s)
		default:
			st.MinDone++
			if c.minTasks[i].verified {
				st.MinVerified++
			}
		}
	}
	st.DistinctBugs = len(c.clusterSeen)
	st.Workers = c.rounds.WorkerStatuses(now)
	return st
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	lease.WriteJSON(w, http.StatusOK, c.Status())
}

// fuzzDashTmpl mirrors the campaign dashboard: one HTML page, no scripts,
// no external assets, refreshed by <meta http-equiv="refresh">.
var fuzzDashTmpl = template.Must(template.New("fuzzdash").Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><meta http-equiv="refresh" content="2">
<title>chipmunk fuzz soak {{.CampaignID}}</title>
<style>
body { font-family: monospace; margin: 1.5em; background: #fafafa; color: #222; }
h1 { font-size: 1.2em; } h2 { font-size: 1em; margin-top: 1.2em; }
table { border-collapse: collapse; } td, th { padding: 2px 10px; text-align: left; border-bottom: 1px solid #ddd; }
.map { word-break: break-all; max-width: 64em; line-height: 1.1; }
.done { color: #2a7; } .run { color: #07c; } .drop { color: #c22; font-weight: bold; } .bug { color: #c22; }
</style></head><body>
<h1>fuzz soak {{.CampaignID}} &mdash; {{.FS}} (spec {{.SpecHash}}, {{.RoundExecs}} execs/round, {{.GenRounds}} rounds/gen)</h1>
<p>
<span class="done">{{.Done}}/{{.Rounds}} rounds done</span> &middot;
<span class="run">{{.Leased}} running</span> &middot;
{{.Pending}} pending &middot; gen {{.Generations}}{{if .Dropped}} &middot; <span class="drop">{{.Dropped}} DROPPED</span>{{end}}{{if .Draining}} &middot; draining{{end}}
</p>
<p>{{.Execs}} execs &middot; {{printf "%.1f" .ExecsPerSec}} execs/sec &middot; {{.StatesChecked}} states checked &middot;
corpus {{.CorpusSize}} ({{.CoverageEdges}} edges) &middot;
<span class="bug">{{.DistinctBugs}} distinct bugs</span> &middot;
elapsed {{printf "%.0f" .ElapsedSec}}s{{if .BudgetExecs}} &middot; budget {{.BudgetExecs}} execs{{end}}{{if gt .BudgetSec 0.0}} &middot; budget {{printf "%.0f" .BudgetSec}}s{{end}}</p>
{{if .MinDone}}{{end}}<p>minimization: {{.MinDone}} done ({{.MinVerified}} re-verified) &middot; {{.MinLeased}} running &middot; {{.MinPending}} pending</p>
<h2>round map ('.' pending, 'r' running, '#' done, 'X' dropped, '|' generation barrier)</h2>
<pre class="map">{{.RoundMap}}</pre>
{{if .Workers}}<h2>workers</h2>
<table><tr><th>worker</th><th>last seen</th><th>units done</th></tr>
{{range .Workers}}<tr><td>{{.ID}}</td><td>{{printf "%.1f" .LastSeenSec}}s ago</td><td>{{.ShardsDone}}</td></tr>
{{end}}</table>{{end}}
{{if .InFlight}}<h2>in flight</h2>
<table><tr><th>kind</th><th>id</th><th>worker</th><th>age</th><th>last beat</th><th>execs</th><th>attempts</th></tr>
{{range .InFlight}}<tr><td>{{.Kind}}</td><td>{{.ID}}</td><td>{{.Worker}}</td><td>{{printf "%.1f" .AgeSec}}s</td><td>{{printf "%.1f" .BeatAgeSec}}s ago</td><td>{{.Progress}}</td><td>{{.Attempts}}</td></tr>
{{end}}</table>{{end}}
</body></html>
`))

func (c *Coordinator) handleDash(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := fuzzDashTmpl.Execute(w, c.Status()); err != nil {
		// Too late for an HTTP error (the header is out); the next refresh
		// retries anyway.
		c.log("dash render: %v", err)
	}
}
