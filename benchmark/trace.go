package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer's exported
// function, named layer.Function ("parser.Parse"); Cell ties the spans of
// one cell, cycle or request together.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Cell   string `json:"cell,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Weight is how many operations a sampled span stands for (64 for the
	// 1-in-64 hot-path samples); 0 means 1.
	Weight int64            `json:"weight,omitempty"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer holds the spans of a traced run in memory until the run ends. A
// nil *tracer is the untraced run: every method is a no-op, so workload
// code calls it unconditionally and the untraced numbers carry no tracing
// cost beyond a nil check outside the hot loops.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(parent int, name, cell string) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Cell: cell, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes a span, attaching the counters taken at the same boundary
// (alternating name, value).
func (t *tracer) end(id int, counts ...any) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	sp := &t.spans[id]
	sp.End = now
	for i := 0; i+1 < len(counts); i += 2 {
		if sp.Counts == nil {
			sp.Counts = make(map[string]int64)
		}
		sp.Counts[counts[i].(string)] = counts[i+1].(int64)
	}
	t.mu.Unlock()
}

// record adds an already-timed span standing for weight operations: hot
// loops time one operation in 64 themselves and hand the interval over
// afterwards.
func (t *tracer) record(parent int, name, cell string, start time.Time, d time.Duration, weight int64) {
	if t == nil {
		return
	}
	s := int64(start.Sub(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Cell: cell, Start: s, End: s + int64(d), Weight: weight})
	t.mu.Unlock()
}

// mark returns the index the next span will get.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// spanDurations returns the durations (ns) of the tracer's spans with the
// given name recorded since mark from.
func (t *tracer) spanDurations(name string, from int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, sp := range t.spans[from:] {
		if sp.Name == name && sp.End >= sp.Start {
			out = append(out, float64(sp.End-sp.Start))
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of that
// interval its children cover: the union of their intervals clipped to the
// parent, a sampled child counting Weight times (so a parent whose tasks
// run concurrently can be covered entirely; self time never goes below 0).
func (t *tracer) selfTimes() []int64 {
	kids := make(map[int][]int)
	for _, sp := range t.spans {
		if sp.Parent >= 0 {
			kids[sp.Parent] = append(kids[sp.Parent], sp.ID)
		}
	}
	self := make([]int64, len(t.spans))
	for _, sp := range t.spans {
		if sp.End < sp.Start {
			continue // never closed: an aborted cell
		}
		ks := kids[sp.ID]
		sort.Slice(ks, func(a, b int) bool { return t.spans[ks[a]].Start < t.spans[ks[b]].Start })
		var covered int64
		cur := sp.Start
		for _, k := range ks {
			s, e := t.spans[k].Start, t.spans[k].End
			if s < cur {
				s = cur
			}
			if e > sp.End {
				e = sp.End
			}
			if e > s {
				covered += (e - s) * max(t.spans[k].Weight, 1)
				cur = e
			}
		}
		self[sp.ID] = max(sp.End-sp.Start-covered, 0)
	}
	return self
}

// nestingViolations counts spans whose children's self times sum to more
// than the span itself — the acceptance check that spans nest.
func (t *tracer) nestingViolations() int {
	self := t.selfTimes()
	sum := make(map[int]int64)
	for _, sp := range t.spans {
		if sp.Parent >= 0 && sp.End >= sp.Start {
			sum[sp.Parent] += self[sp.ID]
		}
	}
	bad := 0
	for id, s := range sum {
		p := t.spans[id]
		if p.End >= p.Start && s > p.End-p.Start {
			bad++
		}
	}
	return bad
}

// write stores the trace next to the harness (benchmark/out/), never
// outside the checkout.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+"-"+itoa(seed)+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
