package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/graph"
	"repro/internal/health"
	"repro/internal/serve"
)

// permitApplier blocks applies on a permit while gated (free == false)
// and runs them instantly otherwise, so a test can gate and release the
// loop repeatedly (the stubApplier's one-shot gate cannot re-close).
type permitApplier struct {
	entered chan struct{}
	permits chan struct{}
	free    atomic.Bool

	mu      sync.Mutex
	applied []graph.Batch
}

func newPermitApplier() *permitApplier {
	return &permitApplier{entered: make(chan struct{}, 64), permits: make(chan struct{}, 1)}
}

func (p *permitApplier) ApplyBatch(b graph.Batch) (core.Stats, error) {
	select {
	case p.entered <- struct{}{}:
	default:
	}
	if !p.free.Load() {
		<-p.permits
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.applied = append(p.applied, b)
	return core.Stats{}, nil
}

// release switches to free-running mode and unblocks the apply (if any)
// currently waiting on a permit.
func (p *permitApplier) release() {
	p.free.Store(true)
	select {
	case p.permits <- struct{}{}:
	default:
	}
}

func (p *permitApplier) gate() { p.free.Store(false) }

func discardLogger() *slog.Logger { return slog.New(slog.DiscardHandler) }

// TestTraceMergeProperty checks the trace-coverage invariant end to end:
// every accepted submission's trace ID appears in exactly one resolved
// apply's merged-trace set — no omissions, no duplicates — across
// coalescing caps from 1 (nothing merges) to unbounded, while a poison
// batch detours through quarantine. Subtest cap=c submits batches of
// DefaultMaxBatchEdges/c edges (at least one), so at most c of them
// merge into one apply.
func TestTraceMergeProperty(t *testing.T) {
	for _, c := range []int{1, 3, 80, 1 << 20} {
		t.Run(fmt.Sprintf("cap=%d", c), func(t *testing.T) {
			checkTraceMerge(t, max(serve.DefaultMaxBatchEdges/c, 1))
		})
	}
}

func checkTraceMerge(t *testing.T, width int) {
	p := newPermitApplier()
	rec := flight.New(flight.Options{Depth: 1 << 14, Logger: discardLogger()})
	l := serve.NewLoop(p, serve.Options{
		QueueDepth: 64,
		Flight:     rec,
		Logger:     discardLogger(),
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var tickets []*serve.Ticket
	seen := map[uint64]bool{}
	submit := func(b graph.Batch) *serve.Ticket {
		t.Helper()
		tk, err := l.Submit(nil, b)
		if err != nil {
			t.Fatalf("submit refused: %v", err)
		}
		if seen[tk.Trace()] {
			t.Fatalf("trace ID %d assigned twice", tk.Trace())
		}
		seen[tk.Trace()] = true
		tickets = append(tickets, tk)
		return tk
	}

	// Wave 1: gate the applier and let the queue build behind the head.
	submit(fanBatch(0, width))
	select {
	case <-p.entered:
	case <-ctx.Done():
		t.Fatal("apply loop never picked up the head batch")
	}
	for i := 0; i < 50; i++ {
		submit(fanBatch(graph.VertexID(1+i), width))
	}
	p.release()
	if err := l.Sync(ctx); err != nil {
		t.Fatalf("drain after wave 1: %v", err)
	}

	// Quarantine: with the queue empty the poison batch is the head at
	// dequeue, so it is validated and quarantined deterministically.
	ptk := submit(graph.Batch{Add: []graph.Edge{{From: 0, To: graph.MaxVertexID + 1, Weight: 1}}})
	// A ticket delivers exactly one Applied; remember it for the collect
	// loop below instead of waiting twice.
	resolved := map[*serve.Ticket]serve.Applied{}
	pa, werr := ptk.Wait(ctx)
	if !errors.Is(werr, graph.ErrInvalidBatch) {
		t.Fatalf("poison ticket err = %v, want ErrInvalidBatch", werr)
	}
	resolved[ptk] = pa

	// Wave 2: re-gate and coalesce a second burst.
	p.gate()
	submit(fanBatch(60, width))
	select {
	case <-p.entered:
	case <-ctx.Done():
		t.Fatal("apply loop never picked up the wave-2 head")
	}
	for i := 0; i < 5; i++ {
		submit(fanBatch(graph.VertexID(61+i), width))
	}
	p.release()
	if err := l.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Collect: resolve every ticket, dedupe applies by head trace ID.
	byHead := map[uint64]flight.BatchTrace{}
	for _, tk := range tickets {
		a, ok := resolved[tk]
		if !ok {
			a, _ = tk.Wait(ctx)
		}
		if a.Trace.ID == 0 {
			t.Fatalf("ticket %d resolved without a trace", tk.Trace())
		}
		if !a.Trace.Covers(tk.Trace()) {
			t.Fatalf("applied trace set %v does not cover its own ticket %d", a.Trace.Traces, tk.Trace())
		}
		if prev, ok := byHead[a.Trace.ID]; ok {
			if !slices.Equal(prev.Traces, a.Trace.Traces) {
				t.Fatalf("apply %d reported different trace sets to its tickets: %v vs %v",
					a.Trace.ID, prev.Traces, a.Trace.Traces)
			}
		} else {
			byHead[a.Trace.ID] = a.Trace
		}
	}

	// The property: accepted trace IDs ↔ union of applied trace sets,
	// 1:1. Any duplicate, omission, or phantom ID fails.
	count := map[uint64]int{}
	total := 0
	for _, bt := range byHead {
		for _, id := range bt.Traces {
			count[id]++
			total++
		}
	}
	for _, tk := range tickets {
		if c := count[tk.Trace()]; c != 1 {
			t.Errorf("trace %d appears %d times across applied sets, want exactly 1", tk.Trace(), c)
		}
	}
	if total != len(tickets) {
		t.Errorf("applied sets cover %d trace IDs, want exactly the %d accepted submissions", total, len(tickets))
	}

	// Cross-check against the flight ring: every accepted trace has an
	// enqueue event, and each coalesced sibling points at the apply that
	// absorbed it.
	enq := map[uint64]bool{}
	coalescedInto := map[uint64]uint64{}
	for _, e := range rec.Snapshot() {
		switch e.Kind {
		case flight.KindEnqueued:
			enq[e.Trace] = true
		case flight.KindCoalesced:
			if head, dup := coalescedInto[e.Trace]; dup {
				t.Errorf("trace %d coalesced twice (into %d and %d)", e.Trace, head, e.A)
			}
			coalescedInto[e.Trace] = uint64(e.A)
		}
	}
	if len(enq) != len(tickets) {
		t.Errorf("%d enqueue events for %d accepted submissions", len(enq), len(tickets))
	}
	for _, tk := range tickets {
		if !enq[tk.Trace()] {
			t.Errorf("accepted trace %d has no enqueue event", tk.Trace())
		}
	}
	for sib, head := range coalescedInto {
		bt, ok := byHead[head]
		if !ok || !bt.Covers(sib) {
			t.Errorf("coalesce event says %d merged into %d, but that apply's set is %v", sib, head, bt.Traces)
		}
	}

	// The quarantined trace resolved alone, with the validation error.
	qt := pa.Trace
	if qt.ID != ptk.Trace() || len(qt.Traces) != 1 || qt.Err == "" || qt.Seq != 0 {
		t.Errorf("quarantined lifecycle = %+v, want a lone unapplied trace with an error", qt)
	}
	if qt.Phases.QueueWait < 0 || qt.Phases.Validate <= 0 {
		t.Errorf("quarantined phases = %+v, want a measured validate time", qt.Phases)
	}
}

// TestTraceDrainOnTerminalFailure: batches stranded behind a terminal
// apply failure drain with their own single-trace lifecycles (exactly
// once each), and the Failed health transition forces a flight dump.
func TestTraceDrainOnTerminalFailure(t *testing.T) {
	s := newStubApplier()
	s.failOn = 1
	rec := flight.New(flight.Options{Depth: 1 << 10, Logger: discardLogger()})
	l := serve.NewLoop(s, serve.Options{
		QueueDepth: 16, DisableCoalescing: true,
		Flight: rec,
		Health: health.NewTracker(nil),
		Logger: discardLogger(),
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	t1 := queueFirstBatch(t, l, s, addBatch(edge(0, 1)))
	t2, err := l.Submit(nil, addBatch(edge(0, 2)))
	if err != nil {
		t.Fatal(err)
	}
	t3, err := l.Submit(nil, addBatch(edge(0, 3)))
	if err != nil {
		t.Fatal(err)
	}
	close(s.gate)

	seen := map[uint64]int{}
	for _, tk := range []*serve.Ticket{t1, t2, t3} {
		a, werr := tk.Wait(ctx)
		if werr == nil {
			t.Fatalf("ticket %d resolved cleanly behind a terminal failure", tk.Trace())
		}
		if a.Trace.ID != tk.Trace() || len(a.Trace.Traces) != 1 || a.Trace.Err == "" {
			t.Fatalf("drained trace = %+v, want lone errored trace %d", a.Trace, tk.Trace())
		}
		for _, id := range a.Trace.Traces {
			seen[id]++
		}
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("trace %d covered %d times", id, n)
		}
	}
	l.Close(nil)

	if rec.Dumps() == 0 {
		t.Fatal("terminal failure produced no flight dump")
	}
	d := rec.LastDump()
	if d == nil || !strings.Contains(d.Reason, "failed") {
		t.Fatalf("dump = %+v, want a reason naming the transition to failed", d)
	}
}

// TestFlightHandlerOpenApply: while the loop's apply is blocked,
// /debug/flight reports it as open_apply, with the head batch's trace
// and an age that keeps growing; once the apply returns the field is
// gone. This is how a long apply the engine cannot interrupt is seen.
func TestFlightHandlerOpenApply(t *testing.T) {
	rec := flight.New(flight.Options{Logger: quiet()})
	s := newStubApplier() // gate shut: the first apply blocks
	l := serve.NewLoop(s, serve.Options{Flight: rec, Logger: quiet()})
	defer l.Close(nil)
	srv := httptest.NewServer(rec.Handler())
	defer srv.Close()

	type openApply struct {
		Trace uint64 `json:"trace"`
		AgeNS int64  `json:"age_ns"`
	}
	get := func() *openApply {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/debug/flight")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			OpenApply *openApply `json:"open_apply"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.OpenApply
	}

	if oa := get(); oa != nil {
		t.Fatalf("idle loop reports open_apply %+v", oa)
	}
	tk, err := l.Submit(nil, addBatch(edge(0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	<-s.entered
	first := get()
	if first == nil || first.Trace != tk.Trace() || first.AgeNS <= 0 {
		t.Fatalf("blocked apply: open_apply = %+v, want trace %d with a positive age", first, tk.Trace())
	}
	time.Sleep(2 * time.Millisecond)
	second := get()
	if second == nil || second.Trace != first.Trace || second.AgeNS <= first.AgeNS {
		t.Fatalf("open_apply did not age: %+v then %+v", first, second)
	}

	close(s.gate)
	if _, err := tk.Wait(nil); err != nil {
		t.Fatal(err)
	}
	if oa := get(); oa != nil {
		t.Fatalf("finished apply still reported as open_apply %+v", oa)
	}
}
