package lease

import (
	"context"
	"fmt"
	"html/template"
	"net/http"
	"sync"
	"time"

	"chipmunk/internal/obs"
)

// The read-only surface every coordinator serves next to its protocol verbs:
// the live JSON status, and a stdlib-only, auto-refreshing HTML view of it.
// Neither mutates a run, so watching one is always safe.
const (
	PathStatus = "/campaign/status"
	PathDash   = "/campaign/dash"
)

// Kind is one of an owner's lease tables as the shell sees it: the name of
// its units on the wire and on status pages, what a spent unit means, and
// how many units share a barrier (0: none).
type Kind struct {
	Name, SpentAs string
	Group         int
	Table         *Table
}

// Shell is the coordinator around the tables, once for both owners: the
// lock, checkpoint log, drain and completion, the wait/close tail, the shared
// verb answers, the status model and the read-only HTTP surface. An owner
// embeds it, keeps only its policy and its own fields, and calls the *Locked
// helpers under Mu. The shell never calls back into the owner while holding
// Mu: the callbacks it is given take Mu themselves.
type Shell struct {
	Mu sync.Mutex // guards the shell, the owner's tables and the owner's state

	kinds    []Kind // kinds[0] is the primary table: status counts, ETA, Degraded
	logf     func(format string, args ...any)
	started  time.Time
	mux      *http.ServeMux
	status   func() any
	census   func() *obs.Snapshot
	ckpt     *Log
	draining bool
	failed   error
	doneOnce sync.Once
	done     chan struct{}
}

// Init readies the shell and returns its mux, the read-only surface routed;
// the owner adds its protocol verbs. status returns the owner's snapshot (a
// struct embedding Status), census its merged collector for /debug/metrics.
func (s *Shell) Init(logf func(string, ...any), kinds []Kind, status func() any, census func() *obs.Snapshot) *http.ServeMux {
	s.kinds, s.logf, s.status, s.census = kinds, logf, status, census
	s.started, s.done, s.mux = time.Now(), make(chan struct{}), http.NewServeMux()
	s.mux.HandleFunc(PathStatus, func(w http.ResponseWriter, r *http.Request) { WriteJSON(w, http.StatusOK, s.status()) })
	s.mux.HandleFunc(PathDash, s.serveDash)
	s.mux.HandleFunc("/debug/metrics", s.serveMetrics)
	return s.mux
}

// ServeHTTP serves the owner's protocol and the read-only surface.
func (s *Shell) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Log writes one line to the owner's log, if it has one.
func (s *Shell) Log(format string, args ...any) {
	if s.logf != nil {
		s.logf(format, args...)
	}
}

// Complete ends the run, releasing Await. Safe with or without Mu held.
func (s *Shell) Complete() { s.doneOnce.Do(func() { close(s.done) }) }

// StoppedLocked reports whether the run leases nothing more: it is draining
// or failed. Caller holds Mu.
func (s *Shell) StoppedLocked() bool { return s.draining || s.failed != nil }

// Attach opens the checkpoint at path for appending once the owner has read,
// validated and replayed it: it reports the lines the reader skipped, writes
// header first when the file had none (nil: it had one), and reports the
// units resumed.
func (s *Shell) Attach(owner, path string, skipped int, header any) (err error) {
	if skipped > 0 {
		s.Log("checkpoint: skipped %d corrupt/torn lines in %s", skipped, path)
	}
	if s.ckpt, err = OpenLog(owner, path, header); err != nil {
		return err
	}
	if n := s.resumed(); n > 0 {
		s.Log("checkpoint: resumed %d units from %s", n, path)
	}
	return nil
}

func (s *Shell) resumed() (n int) {
	for _, k := range s.kinds {
		n += k.Table.Resumed
	}
	return n
}

// AppendLocked checkpoints rec. A failed append fails the run and completes
// it, so Await reports the error (see Log.Append). Caller holds Mu.
func (s *Shell) AppendLocked(rec any) bool {
	err := s.ckpt.Append(rec)
	if err != nil && s.failed == nil {
		s.failed = err
		s.Complete()
	}
	return err == nil
}

// UnitLocked resolves a wire identity — a kind's name and a unit id —
// refusing one that names no unit. Caller holds Mu.
func (s *Shell) UnitLocked(kind string, i int) (Kind, error) {
	for _, k := range s.kinds {
		if k.Name != kind {
			continue
		}
		if i < 0 || i >= len(k.Table.Slots) {
			return k, fmt.Errorf("%s %d out of range [0,%d)", kind, i, len(k.Table.Slots))
		}
		return k, nil
	}
	return Kind{}, fmt.Errorf("unknown unit kind %q", kind)
}

// HeartbeatResponse answers a heartbeat. Extended is false when the unit is
// no longer leased to this worker (expired and re-dispatched, done, or
// spent): the worker should abandon it rather than burn compute on a result
// that would be discarded.
type HeartbeatResponse struct {
	Extended bool  `json:"extended"`
	TTLNanos int64 `json:"ttl_ns,omitempty"`
}

// BeatLocked answers a heartbeat for unit i of kind (Table.Beat). Caller
// holds Mu.
func (s *Shell) BeatLocked(kind string, i int, worker string, progress int) (HeartbeatResponse, error) {
	k, err := s.UnitLocked(kind, i)
	if err != nil || !k.Table.Beat(i, worker, progress, time.Now()) {
		return HeartbeatResponse{}, err
	}
	return HeartbeatResponse{Extended: true, TTLNanos: int64(k.Table.TTL)}, nil
}

// CreditResponse answers a result post.
type CreditResponse struct {
	Accepted bool `json:"accepted"`
	// Duplicate: the result credited nothing — the unit was already
	// credited (at most once), or the payload was a stale error.
	Duplicate bool `json:"duplicate"`
	// Quarantined: the unit is spent — this error payload spent its last
	// attempt, or the result came late for a spent unit and was discarded (a
	// unit is never both credited and written off).
	Quarantined bool `json:"quarantined,omitempty"`
	// Done: the run completed with this credit.
	Done bool `json:"done"`
}

// SettleLocked takes a result for unit i of kind (Table.Settle). It answers,
// and logs, every outcome that credits nothing — a stale error payload, a
// late result for a spent unit, a duplicate — with Duplicate set; the owner
// applies its policy to Accepted and Failed and answers those itself. An
// identity that names no unit is refused and counted. Caller holds Mu.
func (s *Shell) SettleLocked(kind string, i int, worker, failure string) (Outcome, CreditResponse, error) {
	k, err := s.UnitLocked(kind, i)
	if err != nil {
		s.kinds[0].Table.Rejected++
		return Stale, CreditResponse{}, err
	}
	o := k.Table.Settle(i, worker, failure, time.Now())
	switch o {
	case Stale:
		s.Log("stale error payload for %s %d from %s: discarded", kind, i, worker)
	case Discarded:
		s.Log("result for %s %s %d from %s: discarded", k.SpentAs, kind, i, worker)
	case Duplicate:
		s.Log("duplicate result for %s %d from %s: discarded", kind, i, worker)
	}
	return o, CreditResponse{Duplicate: o == Stale || o == Discarded || o == Duplicate, Quarantined: o == Discarded}, nil
}

// Degraded reports whether the primary table has spent units: the census
// misses their work, and the CLI exits with the degraded code.
func (s *Shell) Degraded() bool {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	return s.kinds[0].Table.Count(Spent) > 0
}

// Drain stops issuing leases; units in flight may still report, and their
// credits reach the checkpoint.
func (s *Shell) Drain() {
	s.Mu.Lock()
	s.draining = true
	s.Mu.Unlock()
}

// Await blocks until the run completes or fails, or ctx is cancelled — the
// graceful path, a first SIGINT: then it drains and polls until every unit
// still out has reported or expired (reclaim takes Mu and expires overdue
// leases under the owner's policy), returning ctx's error. failed is the
// run's failure, which outranks it: a failed run has no census.
func (s *Shell) Await(ctx context.Context, reclaim func()) (failed, err error) {
	select {
	case <-s.done:
	case <-ctx.Done():
		s.Drain()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for err == nil {
			select {
			case <-s.done:
				return s.failure(), nil
			case <-tick.C:
				reclaim()
				if s.leased() == 0 {
					err = ctx.Err()
				}
			}
		}
	}
	return s.failure(), err
}

func (s *Shell) failure() error {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	return s.failed
}

func (s *Shell) leased() (n int) {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	for _, k := range s.kinds {
		n += k.Table.Count(Leased)
	}
	return n
}

// Close releases the checkpoint file.
func (s *Shell) Close() error {
	s.Mu.Lock()
	l := s.ckpt
	s.ckpt = nil
	s.Mu.Unlock()
	return l.Close()
}

// Status is the owner-independent part of a coordinator's status snapshot.
// An owner embeds it in its own (encoding/json flattens it into one object)
// and adds its fields; the dashboard renders the whole. Durations are
// seconds.
type Status struct {
	CampaignID string `json:"campaign_id"`
	FS         string `json:"fs"`
	// Pending, Leased and Done count the primary table; its size, spent
	// units and map are the owner's fields, named in its terms.
	Pending  int  `json:"pending"`
	Leased   int  `json:"leased"`
	Done     int  `json:"done"`
	Resumed  int  `json:"resumed,omitempty"`
	Draining bool `json:"draining,omitempty"`
	// StatesChecked is the crash states the credited units checked plus the
	// live progress in-flight leases piggybacked on their last heartbeat.
	// StatesPerSec divides the credited states alone by wall-clock, so a
	// heartbeat never moves the rate. ETASec extrapolates the primary table's
	// open units from those credited this run (resumes were free); 0 until
	// the first live credit.
	ElapsedSec    float64        `json:"elapsed_sec"`
	StatesChecked int64          `json:"states_checked"`
	StatesPerSec  float64        `json:"states_per_sec"`
	ETASec        float64        `json:"eta_sec"`
	Workers       []WorkerStatus `json:"workers,omitempty"`
	InFlight      []UnitStatus   `json:"in_flight,omitempty"`
	Dash          Dash           `json:"-"`
}

// UnitStatus is one in-flight lease; tables in kind order, units in order.
// AgeSec is time since the grant, BeatAgeSec since the last heartbeat (the
// grant when none arrived), Progress the crash states that heartbeat carried.
type UnitStatus struct {
	Kind       string  `json:"kind"`
	ID         int     `json:"id"`
	Worker     string  `json:"worker"`
	AgeSec     float64 `json:"age_sec"`
	BeatAgeSec float64 `json:"beat_age_sec"`
	Progress   int     `json:"progress"`
	Attempts   int     `json:"attempts,omitempty"`
}

// Dash is what only the dashboard shows: the primary table's size, spent
// units and map — one character per unit, '.' pending, 'r' leased, '#' done,
// 'X' spent, with '|' between barrier groups — and the owner's title,
// heading and facts, one line each.
type Dash struct {
	Units, Spent  int
	Map           string
	Noun, SpentAs string
	Group         int
	Title, About  string
	Facts         []string
}

// StatusLocked snapshots the shell and its tables; credited is the crash
// states the owner's credited units checked. It only reads — an expired
// lease shows as leased until the next lease request reclaims it — so a
// status probe never advances the machine. Caller holds Mu.
func (s *Shell) StatusLocked(now time.Time, credited int64) Status {
	p := s.kinds[0]
	st := Status{
		Resumed: s.resumed(), Draining: s.draining, ElapsedSec: now.Sub(s.started).Seconds(),
		StatesChecked: credited, Workers: p.Table.WorkerStatuses(now),
		Dash: Dash{Units: len(p.Table.Slots), Noun: p.Name, SpentAs: p.SpentAs, Group: p.Group},
	}
	var n [4]int // by State
	m := make([]byte, 0, 2*len(p.Table.Slots))
	for i, u := range p.Table.Slots {
		if p.Group > 0 && i > 0 && i%p.Group == 0 {
			m = append(m, '|')
		}
		n[u.State]++
		m = append(m, ".r#X"[u.State])
	}
	st.Pending, st.Leased, st.Done, st.Dash.Spent, st.Dash.Map = n[Pending], n[Leased], n[Done], n[Spent], string(m)
	for _, k := range s.kinds {
		for i, u := range k.Table.Slots {
			if u.State == Leased {
				st.StatesChecked += int64(u.Progress)
				st.InFlight = append(st.InFlight, UnitStatus{Kind: k.Name, ID: i, Worker: u.Worker,
					AgeSec: now.Sub(u.LeasedAt).Seconds(), BeatAgeSec: now.Sub(u.LastBeat).Seconds(),
					Progress: u.Progress, Attempts: u.Attempts})
			}
		}
	}
	if st.ElapsedSec > 0 {
		st.StatesPerSec = float64(credited) / st.ElapsedSec
	}
	if live := st.Done - p.Table.Resumed; live > 0 {
		st.ETASec = st.ElapsedSec * float64(st.Pending+st.Leased) / float64(live)
	}
	return st
}

// serveMetrics serves the owner's census collector, then the tables' control
// plane — one set of counters across them — as Prometheus series. Those
// describe the fleet's health, not the census, so they never enter an
// obs.Snapshot.
func (s *Shell) serveMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.census()
	s.Mu.Lock()
	ctr, spent, leased := *s.kinds[0].Table.Counters, 0, 0
	for _, k := range s.kinds {
		spent += k.Table.Count(Spent)
		leased += k.Table.Count(Leased)
	}
	s.Mu.Unlock()
	w.Header().Set("Content-Type", obs.MetricsContentType)
	snap.WriteMetrics(w)
	for _, m := range []struct {
		name, kind string
		v          int
	}{
		{"chipmunk_lease_granted_total", "counter", ctr.Granted},
		{"chipmunk_lease_redispatched_total", "counter", ctr.Redispatched},
		{"chipmunk_lease_duplicates_discarded_total", "counter", ctr.Duplicates},
		{"chipmunk_lease_payloads_rejected_total", "counter", ctr.BadPayloads},
		{"chipmunk_lease_heartbeats_total", "counter", ctr.Heartbeats},
		{"chipmunk_lease_units_spent", "gauge", spent},
		{"chipmunk_lease_units_leased", "gauge", leased},
	} {
		fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", m.name, m.kind, m.name, m.v)
	}
}

func (s *Shell) serveDash(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := dashTmpl.Execute(w, s.status()); err != nil {
		// Too late for an HTTP error (the header is out); the next refresh
		// retries anyway.
		s.Log("dash render: %v", err)
	}
}

// dashTmpl is the whole dashboard: one HTML page, no scripts, no external
// assets, refreshed by <meta http-equiv="refresh">. html/template escapes
// every interpolation, so worker IDs and suite names are inert.
var dashTmpl = template.Must(template.New("dash").Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><meta http-equiv="refresh" content="2">
<title>chipmunk {{.Dash.Title}}</title>
<style>
body { font-family: monospace; margin: 1.5em; background: #fafafa; color: #222; }
h1 { font-size: 1.2em; } h2 { font-size: 1em; margin-top: 1.2em; }
table { border-collapse: collapse; } td, th { padding: 2px 10px; text-align: left; border-bottom: 1px solid #ddd; }
.map { word-break: break-all; max-width: 64em; line-height: 1.1; }
.done { color: #2a7; } .run { color: #07c; } .spent { color: #c22; font-weight: bold; }
</style></head><body>
<h1>{{.Dash.Title}} &mdash; {{.Dash.About}}</h1>
<p>
<span class="done">{{.Done}}/{{.Dash.Units}} {{.Dash.Noun}}s done</span> &middot;
<span class="run">{{.Leased}} running</span> &middot;
{{.Pending}} pending{{if .Dash.Spent}} &middot; <span class="spent">{{.Dash.Spent}} {{.Dash.SpentAs}}</span>{{end}}{{if .Draining}} &middot; draining{{end}}
</p>
<p>{{.StatesChecked}} states checked &middot; {{printf "%.1f" .StatesPerSec}} states/sec &middot;
elapsed {{printf "%.0f" .ElapsedSec}}s{{if gt .ETASec 0.0}} &middot; ETA {{printf "%.0f" .ETASec}}s{{end}}</p>
{{range .Dash.Facts}}<p>{{.}}</p>
{{end}}<h2>{{.Dash.Noun}} map ('.' pending, 'r' running, '#' done, 'X' {{.Dash.SpentAs}}{{if .Dash.Group}}, '|' barrier every {{.Dash.Group}}{{end}})</h2>
<pre class="map">{{.Dash.Map}}</pre>
{{if .Workers}}<h2>workers</h2>
<table><tr><th>worker</th><th>last seen</th><th>units done</th></tr>
{{range .Workers}}<tr><td>{{.ID}}</td><td>{{printf "%.1f" .LastSeenSec}}s ago</td><td>{{.ShardsDone}}</td></tr>
{{end}}</table>{{end}}
{{if .InFlight}}<h2>in flight</h2>
<table><tr><th>kind</th><th>id</th><th>worker</th><th>age</th><th>last beat</th><th>states</th><th>attempts</th></tr>
{{range .InFlight}}<tr><td>{{.Kind}}</td><td>{{.ID}}</td><td>{{.Worker}}</td><td>{{printf "%.1f" .AgeSec}}s</td><td>{{printf "%.1f" .BeatAgeSec}}s ago</td><td>{{.Progress}}</td><td>{{.Attempts}}</td></tr>
{{end}}</table>{{end}}
</body></html>
`))
