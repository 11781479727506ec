package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced call the benchmark made into a layer. Spans are
// recorded at the benchmark's own call sites only; the stages inside
// BuildModel come from the program's BuildReport / stage histogram and
// carry Src "build_report".
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	StartNS  int64  `json:"start_ns"` // since the tracer's epoch
	EndNS    int64  `json:"end_ns"`
	Src      string `json:"src,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing switched off: every method is a no-op, so call sites need no
// branches.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(workload, name string, parent, rep int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: workload, Rep: rep, StartNS: now, EndNS: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// record adds a finished span whose interval was measured elsewhere.
func (t *tracer) record(workload, name string, parent, rep int, start time.Time, d time.Duration, src string) int {
	if t == nil {
		return -1
	}
	s := start.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: workload, Rep: rep,
		StartNS: s, EndNS: s + d.Nanoseconds(), Src: src})
	return id
}

// startOf returns when span id began, for laying out derived children.
func (t *tracer) startOf(id int) time.Time {
	if t == nil || id < 0 {
		return time.Time{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch.Add(time.Duration(t.spans[id].StartNS))
}

// seconds returns the durations of every span named name on workload.
func (t *tracer) seconds(workload, name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Workload == workload {
			out = append(out, float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	return out
}

// selfSeconds is seconds with each span's self time instead of its whole
// duration.
func (t *tracer) selfSeconds(workload, name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfNS(t.spans)
	var out []float64
	for i, s := range t.spans {
		if s.Name == name && s.Workload == workload {
			out = append(out, float64(self[i])/1e9)
		}
	}
	return out
}

// selfNS returns, per span, its duration minus the part of its interval
// that its direct children cover (overlapping children counted once).
func selfNS(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(spans[k].StartNS, edge), min(spans[k].EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.EndNS - s.StartNS - covered
	}
	return out
}

// spanFile is the on-disk form of a traced run.
type spanFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Dropped counts per-request spans left out of Spans: a serve phase
	// keeps its first requestSpanCap requests and summarizes the rest in
	// the phase span.
	Dropped int     `json:"dropped_request_spans"`
	Spans   []span  `json:"spans"`
	SelfNS  []int64 `json:"self_ns"`
}

func (t *tracer) writeFile(path, workload string, seed uint64, dropped int) error {
	t.mu.Lock()
	doc := spanFile{Workload: workload, Seed: seed, Dropped: dropped, Spans: t.spans, SelfNS: selfNS(t.spans)}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
