package flight

import (
	"testing"
	"time"
)

func TestPhasesTotal(t *testing.T) {
	p := Phases{
		QueueWait: 1 * time.Millisecond,
		Coalesce:  2 * time.Millisecond,
		Validate:  3 * time.Millisecond,
		Journal:   4 * time.Millisecond,
		Apply:     5 * time.Millisecond,
		Publish:   6 * time.Millisecond,
	}
	if got := p.Total(); got != 21*time.Millisecond {
		t.Fatalf("Total = %v", got)
	}
}

func TestBatchTraceCoversAndE2E(t *testing.T) {
	start := time.Now()
	bt := BatchTrace{
		ID:          3,
		Traces:      []uint64{3, 4, 5},
		EnqueuedAt:  start,
		CompletedAt: start.Add(7 * time.Millisecond),
	}
	for _, id := range []uint64{3, 4, 5} {
		if !bt.Covers(id) {
			t.Fatalf("Covers(%d) = false", id)
		}
	}
	if bt.Covers(6) {
		t.Fatal("Covers(6) = true")
	}
	if bt.E2E() != 7*time.Millisecond {
		t.Fatalf("E2E = %v", bt.E2E())
	}
}
