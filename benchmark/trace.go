package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share a
// trace id (notOp for set-up and probes, which belong to none);
// parent is the index of the span that caused this one, or -1 for a
// root. Times are nanoseconds since the tracer was created.
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// notOp is the trace id of spans outside any measured operation.
const notOp = -1

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: nothing is recorded, and a layer boundary costs
// two clock reads.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// newOp returns the trace id of a new operation.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops - 1
}

// begin opens a span at time at and returns its index (-1 untraced).
func (t *tracer) begin(name string, trace, parent int, at time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Trace: trace, Parent: parent, Start: at.Sub(t.epoch).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int, at time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = at.Sub(t.epoch).Nanoseconds()
}

// timed runs fn as a child span of parent and returns how long it
// took, traced or not.
func (t *tracer) timed(name string, trace, parent int, fn func()) time.Duration {
	start := time.Now()
	id := t.begin(name, trace, parent, start)
	fn()
	end := time.Now()
	t.end(id, end)
	return end.Sub(start)
}

// selfTimes returns, per span name, the self time in milliseconds of
// every span of that name that belongs to an operation: its duration
// minus the part of that interval its child spans cover (overlapping
// children count once). ops is the number of operations seen.
func (t *tracer) selfTimes() (self map[string][]float64, ops int) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self = make(map[string][]float64)
	for i, s := range t.spans {
		if s.Trace == notOp {
			continue
		}
		if s.Parent < 0 {
			ops++
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, upto := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, upto), min(t.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[s.Name] = append(self[s.Name], float64(s.End-s.Start-covered)/1e6)
	}
	return self, ops
}

// count returns the number of spans recorded.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeFile dumps every span as one JSON array.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
