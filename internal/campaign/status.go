package campaign

import (
	"html/template"
	"io"
	"net/http"
	"time"

	"chipmunk/internal/lease"
	"chipmunk/internal/obs"
)

// This file is the coordinator's read-only observability surface: the live
// JSON shard map (GET /campaign/status), the stdlib-only auto-refreshing
// HTML dashboard rendered from the same snapshot (GET /campaign/dash), and
// the Prometheus text exposition of the merged census collector
// (GET /debug/metrics). None of these mutate campaign state: watching a
// campaign is always safe.

// CampaignStatus is one point-in-time view of a campaign: the shard state
// counts, worker liveness, throughput, and ETA the dashboard renders. All
// durations are seconds (JSON-friendly; no nanosecond fields to misread).
type CampaignStatus struct {
	CampaignID string `json:"campaign_id"`
	FS         string `json:"fs"`
	Suite      string `json:"suite"`
	SuiteHash  string `json:"suite_hash"`
	Workloads  int    `json:"workloads"`
	ShardSize  int    `json:"shard_size"`

	// Shard state machine counts; Shards = Pending+Leased+Done+Quarantined.
	Shards      int  `json:"shards"`
	Pending     int  `json:"pending"`
	Leased      int  `json:"leased"`
	Done        int  `json:"done"`
	Quarantined int  `json:"quarantined"`
	Resumed     int  `json:"resumed,omitempty"`
	Draining    bool `json:"draining,omitempty"`

	// ShardMap is one character per shard in shard order: '.' pending,
	// 'r' leased (running), '#' done, 'X' quarantined.
	ShardMap string `json:"shard_map"`

	// StatesChecked sums credited shard payloads plus the live progress
	// in-flight leases piggybacked on their last heartbeat; StatesPerSec
	// divides the credited portion by campaign wall-clock, and ETASec
	// extrapolates the remaining shards from the shards credited this run
	// (checkpoint resumes excluded — they were free). ETASec is 0 until the
	// first live credit lands.
	ElapsedSec    float64 `json:"elapsed_sec"`
	StatesChecked int64   `json:"states_checked"`
	StatesPerSec  float64 `json:"states_per_sec"`
	ETASec        float64 `json:"eta_sec"`
	Violations    int     `json:"violations"`

	Workers  []WorkerStatus `json:"workers,omitempty"`
	InFlight []ShardStatus  `json:"in_flight,omitempty"`
}

// WorkerStatus is one worker's liveness row, sorted by ID.
type WorkerStatus = lease.WorkerStatus

// ShardStatus is one in-flight lease, in shard order.
type ShardStatus struct {
	Shard  int    `json:"shard"`
	Start  int    `json:"start"`
	End    int    `json:"end"`
	Worker string `json:"worker"`
	// AgeSec is time since the lease grant, BeatAgeSec since its last
	// heartbeat (also the grant when none arrived yet).
	AgeSec     float64 `json:"age_sec"`
	BeatAgeSec float64 `json:"beat_age_sec"`
	// StatesChecked is the live progress the worker piggybacked on its last
	// heartbeat (0 until the first one lands).
	StatesChecked int `json:"states_checked"`
	Attempts      int `json:"attempts,omitempty"`
}

// Status snapshots the campaign for the dashboard. Expired leases are shown
// as the lease state machine last left them — reclaim happens on the next
// lease request, and a read-only status probe must not advance the machine.
func (c *Coordinator) Status() CampaignStatus {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CampaignStatus{
		CampaignID: c.info.CampaignID,
		FS:         c.info.Spec.FS,
		Suite:      c.info.Spec.Suite,
		SuiteHash:  c.info.SuiteHash,
		Workloads:  c.info.Workloads,
		ShardSize:  c.info.ShardSize,
		Shards:     len(c.shards.Slots),
		Resumed:    c.resumed,
		Draining:   c.draining,
		ElapsedSec: now.Sub(c.started).Seconds(),
	}
	shardMap := make([]byte, len(c.shards.Slots))
	var credited int64
	for i := range c.shards.Slots {
		s := &c.shards.Slots[i]
		switch s.State {
		case lease.Pending:
			st.Pending++
			shardMap[i] = '.'
		case lease.Leased:
			st.Leased++
			shardMap[i] = 'r'
			credited += int64(s.Progress)
			start, end := shardRange(i, c.info.ShardSize, c.info.Workloads)
			st.InFlight = append(st.InFlight, ShardStatus{
				Shard: i, Start: start, End: end, Worker: s.Worker,
				AgeSec:        now.Sub(s.LeasedAt).Seconds(),
				BeatAgeSec:    now.Sub(s.LastBeat).Seconds(),
				StatesChecked: s.Progress, Attempts: s.Attempts,
			})
		case lease.Done:
			st.Done++
			shardMap[i] = '#'
			if p := c.payloads[i]; p != nil {
				credited += int64(p.StatesChecked)
				st.Violations += p.ViolationTotal
			}
		case lease.Spent:
			st.Quarantined++
			shardMap[i] = 'X'
		}
	}
	st.ShardMap = string(shardMap)
	st.StatesChecked = credited
	if st.ElapsedSec > 0 {
		st.StatesPerSec = float64(credited) / st.ElapsedSec
	}
	if live := st.Done - c.resumed; live > 0 {
		remaining := st.Pending + st.Leased
		st.ETASec = st.ElapsedSec * float64(remaining) / float64(live)
	}
	st.Workers = c.shards.WorkerStatuses(now)
	return st
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	lease.WriteJSON(w, http.StatusOK, c.Status())
}

// handleMetrics exposes the merged census collector in Prometheus text
// format — the same exposition the engine's -debug-addr listener serves, so
// one scrape config covers local runs and campaign coordinators alike —
// followed by the lease table's control-plane series.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	cen, _ := c.Merged()
	c.mu.Lock()
	leases := lease.MetricsText(c.shards)
	c.mu.Unlock()
	w.Header().Set("Content-Type", obs.MetricsContentType)
	cen.Obs.WriteMetrics(w)
	io.WriteString(w, leases) //nolint:errcheck // client gone = client's problem
}

// dashTmpl is the whole dashboard: one HTML page, no scripts, no external
// assets, refreshed by <meta http-equiv="refresh">. html/template escapes
// every interpolation, so worker IDs and suite names are inert.
var dashTmpl = template.Must(template.New("dash").Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><meta http-equiv="refresh" content="2">
<title>chipmunk campaign {{.CampaignID}}</title>
<style>
body { font-family: monospace; margin: 1.5em; background: #fafafa; color: #222; }
h1 { font-size: 1.2em; } h2 { font-size: 1em; margin-top: 1.2em; }
table { border-collapse: collapse; } td, th { padding: 2px 10px; text-align: left; border-bottom: 1px solid #ddd; }
.map { word-break: break-all; max-width: 64em; line-height: 1.1; }
.done { color: #2a7; } .run { color: #07c; } .quar { color: #c22; font-weight: bold; }
</style></head><body>
<h1>campaign {{.CampaignID}} &mdash; {{.FS}} / {{.Suite}} ({{.Workloads}} workloads, hash {{.SuiteHash}})</h1>
<p>
<span class="done">{{.Done}}/{{.Shards}} shards done</span> &middot;
<span class="run">{{.Leased}} running</span> &middot;
{{.Pending}} pending{{if .Quarantined}} &middot; <span class="quar">{{.Quarantined}} QUARANTINED</span>{{end}}{{if .Draining}} &middot; draining{{end}}
</p>
<p>{{.StatesChecked}} states checked &middot; {{printf "%.1f" .StatesPerSec}} states/sec &middot;
elapsed {{printf "%.0f" .ElapsedSec}}s{{if gt .ETASec 0.0}} &middot; ETA {{printf "%.0f" .ETASec}}s{{end}} &middot;
{{.Violations}} violations</p>
<h2>shard map ('.' pending, 'r' running, '#' done, 'X' quarantined)</h2>
<pre class="map">{{.ShardMap}}</pre>
{{if .Workers}}<h2>workers</h2>
<table><tr><th>worker</th><th>last seen</th><th>shards done</th></tr>
{{range .Workers}}<tr><td>{{.ID}}</td><td>{{printf "%.1f" .LastSeenSec}}s ago</td><td>{{.ShardsDone}}</td></tr>
{{end}}</table>{{end}}
{{if .InFlight}}<h2>in flight</h2>
<table><tr><th>shard</th><th>range</th><th>worker</th><th>age</th><th>last beat</th><th>states</th><th>attempts</th></tr>
{{range .InFlight}}<tr><td>{{.Shard}}</td><td>[{{.Start}},{{.End}})</td><td>{{.Worker}}</td><td>{{printf "%.1f" .AgeSec}}s</td><td>{{printf "%.1f" .BeatAgeSec}}s ago</td><td>{{.StatesChecked}}</td><td>{{.Attempts}}</td></tr>
{{end}}</table>{{end}}
</body></html>
`))

func (c *Coordinator) handleDash(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := dashTmpl.Execute(w, c.Status()); err != nil {
		// Too late for an HTTP error (the header is out); the next refresh
		// retries anyway.
		c.log("dash render: %v", err)
	}
}
