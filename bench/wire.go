package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"chipmunk/internal/campaign"
	"chipmunk/internal/fleet"
)

// wireTap is the benchmark's http.Handler around a coordinator: it times
// every request on the server side and keeps the bodies, and decodes them
// with the coordinator's public wire types only after the repetition ends,
// so the traced run pays for two copies per request and nothing more.
type wireTap struct {
	next http.Handler

	mu    sync.Mutex
	calls []wireCall
}

type wireCall struct {
	path       string
	start, end time.Time
	req, resp  []byte
}

type bodyRecorder struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (r *bodyRecorder) Write(p []byte) (int, error) {
	r.buf.Write(p)
	return r.ResponseWriter.Write(p)
}

func (t *wireTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, "bench wire tap: "+err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(req))
	rec := &bodyRecorder{ResponseWriter: w}
	start := time.Now()
	t.next.ServeHTTP(rec, r)
	end := time.Now()
	t.mu.Lock()
	t.calls = append(t.calls, wireCall{r.URL.Path, start, end, req, rec.buf.Bytes()})
	t.mu.Unlock()
}

// wireStats is what the tap saw during one repetition.
type wireStats struct {
	srvUS   map[string][]float64 // server-side handler time per path
	bytes   int                  // request + response bodies
	busy    time.Duration        // Σ over workers of grant → result intervals
	waits   int                  // lease responses that said "wait"
	waiting time.Duration        // Σ over workers of first wait → next grant
	tail    time.Duration        // last grant → census
}

// event is one decoded call: who asked, what unit of work it names, and
// whether it granted work, returned a result, or told the worker to wait.
type event struct {
	wireCall
	worker string
	unit   string
	kind   string // "grant", "result", "wait", "done", "" (other)
}

func decode(c wireCall) event {
	e := event{wireCall: c}
	switch c.path {
	case campaign.PathLease:
		var req campaign.LeaseRequest
		var resp campaign.LeaseResponse
		if json.Unmarshal(c.req, &req) == nil && json.Unmarshal(c.resp, &resp) == nil {
			e.worker = req.Worker
			e.kind = leaseKind(resp.Status, campaign.LeaseGranted)
			e.unit = fmt.Sprintf("shard %d", resp.Shard)
		}
	case campaign.PathResult:
		var req campaign.ShardPayload
		if json.Unmarshal(c.req, &req) == nil {
			e.worker, e.kind, e.unit = req.Worker, "result", fmt.Sprintf("shard %d", req.Shard)
		}
	case fleet.PathFuzzLease:
		var req fleet.FuzzLeaseRequest
		var resp fleet.FuzzLeaseResponse
		if json.Unmarshal(c.req, &req) == nil && json.Unmarshal(c.resp, &resp) == nil {
			e.worker = req.Worker
			e.kind = leaseKind(resp.Status, fleet.LeaseRound, fleet.LeaseMinimize)
			e.unit = fmt.Sprintf("round %d", resp.Round)
			if resp.Status == fleet.LeaseMinimize {
				e.unit = fmt.Sprintf("minimize %d", resp.MinID)
			}
		}
	case fleet.PathFuzzResult:
		var req fleet.FuzzResult
		if json.Unmarshal(c.req, &req) == nil {
			e.worker, e.kind, e.unit = req.Worker, "result", fmt.Sprintf("round %d", req.Round)
			if req.Kind == fleet.ResultMinimize {
				e.unit = fmt.Sprintf("minimize %d", req.MinID)
			}
		}
	}
	return e
}

func leaseKind(status string, grants ...string) string {
	for _, g := range grants {
		if status == g {
			return "grant"
		}
	}
	switch status {
	case campaign.LeaseWait:
		return "wait"
	case campaign.LeaseDone:
		return "done"
	}
	return ""
}

// analyse decodes the calls, derives the control-plane figures and writes
// the spans: one per request under the census root, and one lane per worker
// (its own root) whose children are the intervals the worker held a unit.
// end is when the census was complete.
func (t *wireTap) analyse(tr *tracer, root int, end time.Time) wireStats {
	t.mu.Lock()
	calls := append([]wireCall(nil), t.calls...)
	t.mu.Unlock()
	sort.Slice(calls, func(i, j int) bool { return calls[i].start.Before(calls[j].start) })

	st := wireStats{srvUS: map[string][]float64{}}
	type held struct {
		unit     string
		from, to time.Time
	}
	type lane struct {
		first, last time.Time
		grant       *event    // the unit the worker currently holds
		waitFrom    time.Time // zero unless the worker is parked at a barrier
		held        []held
	}
	lanes := map[string]*lane{}
	var lastGrant time.Time
	for i := range calls {
		e := decode(calls[i])
		st.srvUS[e.path] = append(st.srvUS[e.path], e.end.Sub(e.start).Seconds()*1e6)
		st.bytes += len(e.req) + len(e.resp)
		tr.add(span{Name: "wire " + e.path, Parent: root, Worker: e.worker, Unit: e.unit, Bytes: len(e.req) + len(e.resp)}, e.start, e.end)
		if e.worker == "" {
			continue
		}
		l := lanes[e.worker]
		if l == nil {
			l = &lane{first: e.start}
			lanes[e.worker] = l
		}
		l.last = e.end
		switch e.kind {
		case "grant":
			ev := e
			l.grant = &ev
			lastGrant = e.end
			if !l.waitFrom.IsZero() {
				st.waiting += e.end.Sub(l.waitFrom)
				l.waitFrom = time.Time{}
			}
		case "result":
			if l.grant != nil && l.grant.unit == e.unit {
				st.busy += e.start.Sub(l.grant.end)
				l.held = append(l.held, held{e.unit, l.grant.end, e.start})
				l.grant = nil
			}
		case "wait":
			st.waits++
			if l.waitFrom.IsZero() {
				l.waitFrom = e.end
			}
		case "done":
			if !l.waitFrom.IsZero() {
				st.waiting += e.end.Sub(l.waitFrom)
				l.waitFrom = time.Time{}
			}
		}
	}
	if !lastGrant.IsZero() && end.After(lastGrant) {
		st.tail = end.Sub(lastGrant)
	}
	names := make([]string, 0, len(lanes))
	for name := range lanes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		l := lanes[name]
		id := tr.add(span{Name: "worker.lane", Worker: name}, l.first, l.last)
		for _, h := range l.held {
			tr.add(span{Name: "worker.unit", Parent: id, Worker: name, Unit: h.unit}, h.from, h.to)
		}
	}
	return st
}
