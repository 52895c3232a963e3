package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Start and End are
// nanoseconds since the tracer's origin; Parent is the ID of the span that
// caused this one (0 for a root). Spans are recorded by the benchmark around
// its calls into each layer, never inside the program.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Worker   string `json:"worker,omitempty"`
	Unit     string `json:"unit,omitempty"`
	Bytes    int    `json:"bytes,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the timed repetitions share code with the traced one.
type tracer struct {
	workload string
	origin   time.Time

	mu    sync.Mutex
	rep   int
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// add records a finished span and returns its ID.
func (t *tracer) add(s span, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	s.Start, s.End = start.Sub(t.origin).Nanoseconds(), end.Sub(t.origin).Nanoseconds()
	s.Workload, s.Rep = t.workload, t.rep
	t.spans = append(t.spans, s)
	return s.ID
}

// setRep tags the spans recorded from now on with a repetition number
// (0 outside any repetition).
func (t *tracer) setRep(rep int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rep = rep
	t.mu.Unlock()
}

// begin opens a span whose end is not known yet; finish closes it.
func (t *tracer) begin(name string, parent int) int {
	now := time.Now()
	return t.add(span{Name: name, Parent: parent}, now, now)
}

func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	end := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// region runs f inside a span.
func (t *tracer) region(name string, parent int, f func(id int) error) error {
	id := t.begin(name, parent)
	defer t.finish(id)
	return f(id)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes maps each span ID to its self time: the span's duration minus
// the part of that interval its child spans cover. Children are clipped to
// the parent and overlapping children are counted once.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfByName totals self time per span name over root and everything below
// it. When siblings do not overlap the totals add up to root's duration: the
// check that no time inside the traced repetition went unattributed or was
// counted twice.
func selfByName(spans []span, root int) map[string]int64 {
	self := selfTimes(spans)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	out := make(map[string]int64)
	for _, s := range spans {
		for p := s.ID; p != 0; p = byID[p].Parent {
			if p == root {
				out[s.Name] += self[s.ID]
				break
			}
		}
	}
	return out
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("encode span %d: %w", spans[i].ID, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
