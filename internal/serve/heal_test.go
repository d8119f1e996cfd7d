package serve_test

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/health"
	"repro/internal/serve"
	"repro/internal/stream"
)

// quiet discards the loop's degraded-mode log lines.
func quiet() *slog.Logger { return slog.New(slog.DiscardHandler) }

// fastBackoff keeps degraded-mode tests quick and deterministic.
func fastBackoff() backoff.Policy {
	return backoff.Policy{Base: time.Millisecond, Max: 5 * time.Millisecond, Jitter: -1}
}

// healingApplier fails applies with a recoverable ailment: the serve
// loop's model of a durable engine with a flaky disk.
type healingApplier struct {
	mu           sync.Mutex
	applied      []graph.Batch
	failNext     int // upcoming applies that fault (setting the ailment)
	recoverAfter int // Recover calls that fail before one succeeds
	recoverCalls int
	ailment      error
}

func (h *healingApplier) ApplyBatch(b graph.Batch) (core.Stats, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ailment != nil {
		return core.Stats{}, fmt.Errorf("journal degraded: %w", h.ailment)
	}
	if h.failNext > 0 {
		h.failNext--
		h.ailment = errors.New("injected journal fault")
		return core.Stats{}, h.ailment
	}
	h.applied = append(h.applied, b)
	return core.Stats{}, nil
}

func (h *healingApplier) Ailment() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ailment
}

func (h *healingApplier) Recover() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.recoverCalls++
	if h.recoverAfter > 0 {
		h.recoverAfter--
		return errors.New("fault persists")
	}
	h.ailment = nil
	return nil
}

func (h *healingApplier) batches() []graph.Batch {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]graph.Batch(nil), h.applied...)
}

// TestDegradedModeRecovery drives a full degraded episode: the fault
// holds the in-flight batch, Submit fails fast with ErrDegraded, the
// backoff supervisor retries Recover until it succeeds, and the held
// batch plus the queue replay in order.
func TestDegradedModeRecovery(t *testing.T) {
	h := &healingApplier{failNext: 1, recoverAfter: 2}
	tracker := health.NewTracker(nil)
	degraded := make(chan struct{})
	var once sync.Once
	tracker.OnTransition(func(from, to health.State, cause error) {
		if to == health.Degraded {
			once.Do(func() { close(degraded) })
		}
	})
	l := serve.NewLoop(h, serve.Options{
		Backoff: fastBackoff(),
		Health:  tracker,
		Logger:  quiet(),
	})

	t1, err := l.Submit(nil, addBatch(edge(0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-degraded:
	case <-time.After(5 * time.Second):
		t.Fatal("loop never entered degraded mode")
	}

	// Writes fail fast while degraded — even under the Block policy.
	if _, err := l.Submit(nil, addBatch(edge(1, 2))); !errors.Is(err, serve.ErrDegraded) {
		t.Fatalf("Submit while degraded = %v, want ErrDegraded", err)
	}

	// The held batch resolves successfully once recovery lands.
	a, err := t1.Wait(nil)
	if err != nil {
		t.Fatalf("held batch failed: %v (applied=%+v)", err, a)
	}
	if a.Seq != 1 {
		t.Fatalf("held batch Seq = %d, want 1", a.Seq)
	}
	if got := tracker.State(); got != health.Healthy {
		t.Fatalf("health after recovery = %v, want Healthy", got)
	}
	if h.recoverCalls != 3 {
		t.Fatalf("Recover called %d times, want 3 (2 failures + success)", h.recoverCalls)
	}

	// Normal service resumed.
	t2, err := l.Submit(nil, addBatch(edge(1, 2)))
	if err != nil {
		t.Fatalf("Submit after recovery: %v", err)
	}
	if _, err := t2.Wait(nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(nil); err != nil {
		t.Fatalf("Close after recovered episode = %v, want nil", err)
	}
	if n := len(h.batches()); n != 2 {
		t.Fatalf("%d batches applied, want 2", n)
	}
}

// TestCloseInterruptsDegradedBackoff: closing mid-episode wakes the
// supervisor, fails the held batch and the queue with ErrDegraded, and
// is NOT a terminal failure — the engine state is intact.
func TestCloseInterruptsDegradedBackoff(t *testing.T) {
	h := &healingApplier{failNext: 1, recoverAfter: 1 << 30} // never recovers
	tracker := health.NewTracker(nil)
	degraded := make(chan struct{})
	var once sync.Once
	tracker.OnTransition(func(from, to health.State, cause error) {
		if to == health.Degraded {
			once.Do(func() { close(degraded) })
		}
	})
	l := serve.NewLoop(h, serve.Options{
		Backoff: backoff.Policy{Base: time.Hour, Jitter: -1}, // only Close can end the wait
		Health:  tracker,
		Logger:  quiet(),
	})
	tk, err := l.Submit(nil, addBatch(edge(0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-degraded:
	case <-time.After(5 * time.Second):
		t.Fatal("loop never entered degraded mode")
	}

	closeCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.Close(closeCtx); err != nil {
		t.Fatalf("Close during degraded episode = %v, want nil (not terminal)", err)
	}
	if _, err := tk.Wait(nil); !errors.Is(err, serve.ErrDegraded) {
		t.Fatalf("held ticket err = %v, want ErrDegraded", err)
	}
	if err := l.Err(); err != nil {
		t.Fatalf("Err() = %v after degraded shutdown, want nil", err)
	}
}

// TestOutOfBandAilmentHealsBetweenBatches models a checkpoint that
// fails after its batch applied: the apply reports success, the
// ticket resolves, and the loop heals the ailment before the next
// batch.
func TestOutOfBandAilmentHealsBetweenBatches(t *testing.T) {
	h := &healingApplier{}
	tracker := health.NewTracker(nil)
	states := make(chan health.State, 8)
	tracker.OnTransition(func(from, to health.State, cause error) { states <- to })
	l := serve.NewLoop(h, serve.Options{
		Backoff: fastBackoff(),
		Health:  tracker,
		Logger:  quiet(),
	})

	// First batch succeeds but leaves an ailment behind (out of band).
	h.mu.Lock()
	h.applied = nil
	h.mu.Unlock()
	tk, err := l.Submit(nil, addBatch(edge(0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	// Inject the ailment while the batch is in flight is racy; instead
	// set it right after the apply by wrapping: simulate by setting the
	// ailment once the ticket resolves successfully.
	if _, err := tk.Wait(nil); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	h.ailment = errors.New("checkpoint failed after apply")
	h.mu.Unlock()

	// The next batch trips the in-band path (ApplyBatch fails fast on
	// the ailment), degrades, recovers, and replays.
	t2, err := l.Submit(nil, addBatch(edge(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Wait(nil); err != nil {
		t.Fatalf("batch after ailment: %v", err)
	}
	if got := tracker.State(); got != health.Healthy {
		t.Fatalf("health = %v, want Healthy", got)
	}
	if n := len(h.batches()); n != 2 {
		t.Fatalf("%d batches applied, want 2", n)
	}
	// The episode went Degraded then back to Healthy.
	want := []health.State{health.Degraded, health.Healthy}
	for i, w := range want {
		select {
		case got := <-states:
			if got != w {
				t.Fatalf("transition %d = %v, want %v", i, got, w)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("missing transition %d (%v)", i, w)
		}
	}
}

// TestSubmitCancelledContext: an already-cancelled context returns
// ctx.Err() without enqueuing, even with queue space free.
func TestSubmitCancelledContext(t *testing.T) {
	s := newStubApplier()
	close(s.gate)
	l := serve.NewLoop(s, serve.Options{Logger: quiet()})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := l.Submit(ctx, addBatch(edge(0, 1))); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit with cancelled ctx = %v, want context.Canceled", err)
	}
	if err := l.Close(nil); err != nil {
		t.Fatal(err)
	}
	if len(s.batches()) != 0 {
		t.Fatal("cancelled Submit enqueued a batch")
	}
}

// TestQuarantineEquivalence is the BSP-equivalence property the
// quarantine exists for: an engine that ingested a stream with poison
// batches interleaved must end bit-for-bit where an engine that never
// saw them ends, because rejected batches never touch engine state.
func TestQuarantineEquivalence(t *testing.T) {
	edges := gen.RMAT(11, 80, 500, gen.WeightUniform)
	st, err := stream.FromEdges(80, edges, stream.Config{BatchSize: 40, DeleteFraction: 0.25, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	newEngine := func() *core.Engine[float64, float64] {
		e, err := core.NewEngine[float64, float64](st.Base, algorithms.NewPageRank(), core.Options{MaxIterations: 8})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	poison := func(i int) graph.Batch {
		return graph.Batch{Add: []graph.Edge{{From: graph.VertexID(i), To: 1, Weight: float64(i)}, {From: 0, To: graph.MaxVertexID + 1, Weight: 1}}}
	}

	// Serve path: valid batches with poison interleaved before, between,
	// and after. Coalescing is disabled so the baseline below sees the
	// identical sequence of apply calls and values can be compared
	// exactly.
	eng := newEngine()
	eng.Run()
	l := serve.NewLoop(eng, serve.Options{DisableCoalescing: true, Logger: quiet()})
	var poisonTickets []*serve.Ticket
	submitPoison := func(i int) {
		tk, err := l.Submit(nil, poison(i))
		if err != nil {
			t.Fatal(err)
		}
		poisonTickets = append(poisonTickets, tk)
	}
	for i, b := range st.Batches {
		if i%2 == 0 {
			submitPoison(i)
		}
		if _, err := l.Submit(nil, b); err != nil {
			t.Fatal(err)
		}
	}
	submitPoison(999)
	if err := l.Sync(nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(nil); err != nil {
		t.Fatal(err)
	}
	for i, tk := range poisonTickets {
		if _, err := tk.Wait(nil); !errors.Is(err, graph.ErrInvalidBatch) {
			t.Fatalf("poison %d resolved with %v, want ErrInvalidBatch", i, err)
		}
	}

	// Baseline: the same engine fed only the valid batches, directly.
	want := newEngine()
	want.Run()
	for _, b := range st.Batches {
		if _, err := want.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}

	got, wantV := eng.Values(), want.Values()
	if len(got) != len(wantV) {
		t.Fatalf("value lengths differ: %d vs %d", len(got), len(wantV))
	}
	// Tolerance covers parallel reduction reordering only; a leaked
	// poison batch shifts values by far more.
	for v := range got {
		if diff := got[v] - wantV[v]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("vertex %d: %v vs %v — poison batch leaked into engine state", v, got[v], wantV[v])
		}
	}
}
