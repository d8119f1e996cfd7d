package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "ticket.wait", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "phase.queue_wait", Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: "phase.apply", Start: 10, End: 70},
		{ID: 4, Parent: 3, Name: "grandchild", Start: 20, End: 30},
		// Overlaps span 3 from 60 to 70: that part is covered once.
		{ID: 5, Parent: 1, Name: "phase.publish", Start: 60, End: 90},
		// Runs past the parent: only the part inside counts.
		{ID: 6, Parent: 1, Name: "late", Start: 95, End: 120},
		{ID: 7, Name: "submit", Start: 200, End: 205},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1: 100 - (10 + 60 + 20 + 5), // children cover [0,90) and [95,100)
		2: 10,
		3: 60 - 10, // minus its own child only
		4: 10,
		5: 30,
		6: 25,
		7: 5,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	sum := summarize(spans)
	if got := sum["ticket.wait"]; got.Count != 1 || got.TotalMs != 100/1e6 || got.SelfMs != 5/1e6 {
		t.Errorf("summary of ticket.wait = %+v", got)
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	var off *tracer
	if id := off.record(0, "x", 0, time.Now(), time.Now()); id != 0 {
		t.Errorf("nil tracer returned span id %d, want 0", id)
	}

	tr := newTracer()
	t0 := tr.epoch
	parent := tr.record(0, "ticket.wait", 7, t0.Add(time.Millisecond), t0.Add(5*time.Millisecond))
	child := tr.record(parent, "phase.apply", 7, t0.Add(2*time.Millisecond), t0.Add(4*time.Millisecond))
	if parent != 1 || child != 2 {
		t.Fatalf("span ids = %d, %d, want 1, 2", parent, child)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path, "w", 3); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got traceFile
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Workload != "w" || got.Seed != 3 || len(got.Spans) != 2 {
		t.Fatalf("trace file = %+v", got)
	}
	if s := got.Spans[1]; s.Parent != 1 || s.Trace != 7 || s.Start != int64(2*time.Millisecond) || s.End != int64(4*time.Millisecond) {
		t.Errorf("child span = %+v", s)
	}
	if w := got.ByName["ticket.wait"]; w.TotalMs != 4 || w.SelfMs != 2 {
		t.Errorf("ticket.wait summary = %+v, want total 4 ms, self 2 ms", w)
	}
}
