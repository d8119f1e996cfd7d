package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the harness around a call
// into the program (or, for the ticket phases, laid out from the
// durations the program reports). Times are nanoseconds since the
// recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Trace  uint64 `json:"trace,omitempty"` // batch trace ID, when the span belongs to one
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the workload ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record stores one completed span and returns its ID for children to
// name as parent.
func (t *tracer) record(parent int, name string, trace uint64, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Trace: trace,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its direct children (overlapping children
// are counted once; parts of a child outside the parent are ignored).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cursor := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// spanSummary aggregates one span name.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func summarize(spans []span) map[string]spanSummary {
	self := selfTimes(spans)
	out := make(map[string]spanSummary)
	for _, s := range spans {
		sum := out[s.Name]
		sum.Count++
		sum.TotalMs += float64(s.End-s.Start) / 1e6
		sum.SelfMs += float64(self[s.ID]) / 1e6
		out[s.Name] = sum
	}
	return out
}

// traceFile is what a traced run writes when the workload ends.
type traceFile struct {
	Workload string                 `json:"workload"`
	Seed     uint64                 `json:"seed"`
	ByName   map[string]spanSummary `json:"by_name"`
	Spans    []span                 `json:"spans"`
}

func (t *tracer) write(path, workload string, seed uint64) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, ByName: summarize(spans), Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
