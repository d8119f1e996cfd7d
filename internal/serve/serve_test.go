package serve_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
)

// stubApplier records applied batches. Until gate is closed it blocks
// every apply call, signalling entry on entered — tests use this to
// build up a queue deterministically before the loop drains it.
type stubApplier struct {
	entered chan struct{} // buffered; signalled at each apply entry
	gate    chan struct{} // applies block here until closed

	mu      sync.Mutex
	applied []graph.Batch
	failOn  int // 1-based apply index that fails (0 = never)
}

func newStubApplier() *stubApplier {
	return &stubApplier{entered: make(chan struct{}, 16), gate: make(chan struct{})}
}

func (s *stubApplier) ApplyBatch(b graph.Batch) (core.Stats, error) {
	select {
	case s.entered <- struct{}{}:
	default:
	}
	<-s.gate
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applied = append(s.applied, b)
	if s.failOn != 0 && len(s.applied) == s.failOn {
		return core.Stats{}, errors.New("injected apply failure")
	}
	return core.Stats{}, nil
}

func (s *stubApplier) batches() []graph.Batch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]graph.Batch(nil), s.applied...)
}

func edge(from, to graph.VertexID) graph.Edge { return graph.Edge{From: from, To: to, Weight: 1} }

func addBatch(es ...graph.Edge) graph.Batch { return graph.Batch{Add: es} }

// fanBatch adds n distinct edges from, from → 0..n-1, so tests can size
// batches against DefaultMaxBatchEdges.
func fanBatch(from graph.VertexID, n int) graph.Batch {
	b := graph.Batch{Add: make([]graph.Edge, n)}
	for i := range b.Add {
		b.Add[i] = edge(from, graph.VertexID(i))
	}
	return b
}

// queueFirstBatch submits one batch and waits until the loop is inside
// its apply call, so everything submitted afterwards stays queued until
// the stub's gate opens.
func queueFirstBatch(t *testing.T, l *serve.Loop, s *stubApplier, b graph.Batch) *serve.Ticket {
	t.Helper()
	tk, err := l.Submit(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("apply loop never picked up the first batch")
	}
	return tk
}

func TestCoalescingMergesQueuedBatches(t *testing.T) {
	s := newStubApplier()
	l := serve.NewLoop(s, serve.Options{QueueDepth: 16})
	queueFirstBatch(t, l, s, addBatch(edge(0, 1)))
	var tickets []*serve.Ticket
	for i := 2; i <= 4; i++ {
		tk, err := l.Submit(nil, addBatch(edge(0, graph.VertexID(i))))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	close(s.gate)
	if err := l.Close(nil); err != nil {
		t.Fatal(err)
	}
	got := s.batches()
	if len(got) != 2 {
		t.Fatalf("applied %d batches, want 2 (first alone, rest coalesced)", len(got))
	}
	if len(got[1].Add) != 3 {
		t.Fatalf("coalesced batch has %d adds, want 3", len(got[1].Add))
	}
	for _, tk := range tickets {
		a, err := tk.Wait(nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.Batches != 3 || a.Seq != 2 {
			t.Fatalf("ticket resolved to %+v, want Batches=3 Seq=2", a)
		}
	}
	if l.Seq() != 2 {
		t.Fatalf("Seq() = %d, want 2", l.Seq())
	}
}

// TestCoalescingGuardSplitsDeleteAfterAdd: a queued deletion of an edge
// key the accumulated batch adds must end the merge run — within one
// batch the deletion would match a pre-existing edge instance instead
// of the pending addition.
func TestCoalescingGuardSplitsDeleteAfterAdd(t *testing.T) {
	s := newStubApplier()
	l := serve.NewLoop(s, serve.Options{QueueDepth: 16})
	queueFirstBatch(t, l, s, addBatch(edge(9, 9)))
	for _, b := range []graph.Batch{
		addBatch(edge(1, 2)),
		{Del: []graph.Edge{edge(1, 2)}}, // deletes the queued addition
		addBatch(edge(3, 4)),
	} {
		if _, err := l.Submit(nil, b); err != nil {
			t.Fatal(err)
		}
	}
	close(s.gate)
	if err := l.Close(nil); err != nil {
		t.Fatal(err)
	}
	got := s.batches()
	if len(got) != 3 {
		t.Fatalf("applied %d batches, want 3 (guard splits before the delete)", len(got))
	}
	if len(got[1].Add) != 1 || len(got[1].Del) != 0 {
		t.Fatalf("second apply = %+v, want just the (1,2) addition", got[1])
	}
	if len(got[2].Del) != 1 || len(got[2].Add) != 1 {
		t.Fatalf("third apply = %+v, want the delete merged with the following add", got[2])
	}
}

func TestCoalescingRespectsSizeCap(t *testing.T) {
	s := newStubApplier()
	l := serve.NewLoop(s, serve.Options{QueueDepth: 16})
	queueFirstBatch(t, l, s, addBatch(edge(0, 1)))
	// Half-cap batches: two fill an apply, a third would cross the cap.
	half := serve.DefaultMaxBatchEdges / 2
	for i := 0; i < 4; i++ {
		if _, err := l.Submit(nil, fanBatch(graph.VertexID(1+i), half)); err != nil {
			t.Fatal(err)
		}
	}
	close(s.gate)
	if err := l.Close(nil); err != nil {
		t.Fatal(err)
	}
	got := s.batches()
	if len(got) != 3 {
		t.Fatalf("applied %d batches, want 3 (two half-cap batches per apply)", len(got))
	}
	for i, b := range got[1:] {
		if len(b.Add) != 2*half {
			t.Fatalf("apply %d merged %d adds, want %d", i+1, len(b.Add), 2*half)
		}
	}
}

func TestDisableCoalescing(t *testing.T) {
	s := newStubApplier()
	l := serve.NewLoop(s, serve.Options{QueueDepth: 16, DisableCoalescing: true})
	queueFirstBatch(t, l, s, addBatch(edge(0, 1)))
	for i := 0; i < 3; i++ {
		if _, err := l.Submit(nil, addBatch(edge(0, graph.VertexID(2+i)))); err != nil {
			t.Fatal(err)
		}
	}
	close(s.gate)
	if err := l.Close(nil); err != nil {
		t.Fatal(err)
	}
	if got := s.batches(); len(got) != 4 {
		t.Fatalf("applied %d batches, want 4 (coalescing disabled)", len(got))
	}
}

func TestBlockPolicyHonorsContext(t *testing.T) {
	s := newStubApplier()
	l := serve.NewLoop(s, serve.Options{QueueDepth: 1})
	queueFirstBatch(t, l, s, addBatch(edge(0, 1)))
	if _, err := l.Submit(nil, addBatch(edge(0, 2))); err != nil {
		t.Fatal(err) // fills the queue
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := l.Submit(ctx, addBatch(edge(0, 3))); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	close(s.gate)
	if err := l.Close(nil); err != nil {
		t.Fatal(err)
	}
	// The batch whose Submit timed out must not have been applied.
	for _, b := range s.batches() {
		for _, e := range b.Add {
			if e.To == 3 {
				t.Fatal("timed-out submit was applied")
			}
		}
	}
}

func TestCloseDrainsQueueAndRefusesNewSubmits(t *testing.T) {
	s := newStubApplier()
	l := serve.NewLoop(s, serve.Options{QueueDepth: 16})
	queueFirstBatch(t, l, s, addBatch(edge(0, 1)))
	tk, err := l.Submit(nil, addBatch(edge(0, 2)))
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- l.Close(nil) }()
	close(s.gate)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(nil); err != nil {
		t.Fatalf("queued batch not applied during drain: %v", err)
	}
	if _, err := l.Submit(nil, addBatch(edge(0, 3))); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	total := 0
	for _, b := range s.batches() {
		total += len(b.Add)
	}
	if total != 2 {
		t.Fatalf("drained %d adds, want 2", total)
	}
}

func TestTerminalApplyFailure(t *testing.T) {
	s := newStubApplier()
	s.failOn = 1
	l := serve.NewLoop(s, serve.Options{QueueDepth: 16, DisableCoalescing: true})
	t1 := queueFirstBatch(t, l, s, addBatch(edge(0, 1)))
	t2, err := l.Submit(nil, addBatch(edge(0, 2)))
	if err != nil {
		t.Fatal(err)
	}
	close(s.gate)
	if a, _ := t1.Wait(nil); a.Err == nil {
		t.Fatal("failing apply resolved its ticket without error")
	}
	// The queued batch behind the failure is failed, not applied.
	if a, _ := t2.Wait(nil); a.Err == nil {
		t.Fatal("batch queued behind a terminal failure was resolved cleanly")
	}
	if err := l.Close(nil); err == nil {
		t.Fatal("Close returned nil after a terminal apply failure")
	}
	if l.Err() == nil {
		t.Fatal("Err() nil after terminal failure")
	}
	if _, err := l.Submit(nil, addBatch(edge(0, 3))); err == nil {
		t.Fatal("Submit accepted after terminal failure")
	}
	if got := s.batches(); len(got) != 1 {
		t.Fatalf("%d batches reached the applier, want 1", len(got))
	}
}

// TestPoisonBatchQuarantined: a malformed batch is accepted by Submit
// (validation is the apply goroutine's job) and rejected at dequeue: its
// ticket fails wrapping ErrInvalidBatch, the quarantine counter and
// exactly one quarantined flight event record it under its submission
// number, and the loop keeps serving afterwards.
func TestPoisonBatchQuarantined(t *testing.T) {
	s := newStubApplier()
	close(s.gate)
	reg := obs.NewRegistry()
	rec := flight.New(flight.Options{Logger: quiet()})
	l := serve.NewLoop(s, serve.Options{Logger: quiet(), Metrics: reg, Flight: rec})
	first, err := l.Submit(nil, addBatch(edge(0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Wait(nil); err != nil {
		t.Fatal(err)
	}

	// The poison is submission 2.
	bad := graph.Batch{Add: []graph.Edge{{From: 0, To: graph.MaxVertexID + 1, Weight: 1}}}
	tk, err := l.Submit(nil, bad)
	if err != nil {
		t.Fatalf("Submit of poison batch rejected eagerly: %v", err)
	}
	a, err := tk.Wait(nil)
	if !errors.Is(err, graph.ErrInvalidEdge) || !errors.Is(err, graph.ErrInvalidBatch) {
		t.Fatalf("ticket err = %v, want ErrInvalidBatch/ErrInvalidEdge", err)
	}
	if a.Seq != 2 || a.Batches != 1 {
		t.Fatalf("quarantine Applied = %+v, want attempt Seq 2", a)
	}
	if len(s.batches()) != 1 {
		t.Fatal("poison batch reached the applier")
	}

	// The loop is not latched: the next valid batch still applies.
	good, err := l.Submit(nil, addBatch(edge(0, 2)))
	if err != nil {
		t.Fatalf("Submit after quarantine: %v", err)
	}
	if _, err := good.Wait(nil); err != nil {
		t.Fatalf("apply after quarantine: %v", err)
	}
	if err := l.Close(nil); err != nil {
		t.Fatal(err)
	}
	if len(s.batches()) != 2 {
		t.Fatalf("%d batches reached the applier, want 2", len(s.batches()))
	}

	if got := reg.Counter("graphbolt_serve_quarantined_batches_total", "").Value(); got != 1 {
		t.Fatalf("graphbolt_serve_quarantined_batches_total = %d, want 1", got)
	}
	var quarantined []flight.Event
	for _, ev := range rec.Snapshot() {
		if ev.Kind == flight.KindQuarantined {
			quarantined = append(quarantined, ev)
		}
	}
	if len(quarantined) != 1 || quarantined[0].A != 2 || quarantined[0].Trace != tk.Trace() {
		t.Fatalf("quarantined events = %+v, want one for submission 2, trace %d", quarantined, tk.Trace())
	}
}

func TestSyncWaitsForDrain(t *testing.T) {
	s := newStubApplier()
	reg := obs.NewRegistry()
	l := serve.NewLoop(s, serve.Options{QueueDepth: 16, Metrics: reg})
	queueFirstBatch(t, l, s, addBatch(edge(0, 1)))
	if _, err := l.Submit(nil, addBatch(edge(0, 2))); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	err := l.Sync(ctx)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Sync with gated applier = %v, want DeadlineExceeded", err)
	}
	close(s.gate)
	if err := l.Sync(nil); err != nil {
		t.Fatal(err)
	}
	if d := reg.Gauge("graphbolt_serve_queue_depth", "").Value(); d != 0 {
		t.Fatalf("graphbolt_serve_queue_depth = %v after Sync", d)
	}
	if err := l.Close(nil); err != nil {
		t.Fatal(err)
	}
}
