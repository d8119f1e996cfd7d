package serve_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
)

// TestCoalescingExactlyAtCap pins the boundary condition: a merge that
// lands the accumulated batch exactly at DefaultMaxBatchEdges is allowed
// (the cap is inclusive), and the next batch — which would cross it —
// starts a new apply. Deletions count toward the size alongside
// additions.
func TestCoalescingExactlyAtCap(t *testing.T) {
	const capEdges = serve.DefaultMaxBatchEdges
	s := newStubApplier()
	l := serve.NewLoop(s, serve.Options{QueueDepth: 16})
	queueFirstBatch(t, l, s, addBatch(edge(9, 9)))

	t1, err := l.Submit(nil, fanBatch(1, capEdges-2)) // size cap-2
	if err != nil {
		t.Fatal(err)
	}
	// 1 add + 1 del = 2 edges; cap-2+2 == cap, so this still merges. The
	// deleted key (7,8) is not among the pending adds, so the guard
	// does not fire.
	t2, err := l.Submit(nil, graph.Batch{
		Add: []graph.Edge{edge(0, 3)},
		Del: []graph.Edge{edge(7, 8)},
	})
	if err != nil {
		t.Fatal(err)
	}
	t3, err := l.Submit(nil, addBatch(edge(0, 4))) // cap+1 > cap: new run
	if err != nil {
		t.Fatal(err)
	}

	close(s.gate)
	if err := l.Close(nil); err != nil {
		t.Fatal(err)
	}

	got := s.batches()
	if len(got) != 3 {
		t.Fatalf("applied %d batches, want 3 (gate batch, exact-cap merge, overflow)", len(got))
	}
	if len(got[1].Add) != capEdges-1 || len(got[1].Del) != 1 {
		t.Fatalf("exact-cap apply = %d adds / %d dels, want %d/1", len(got[1].Add), len(got[1].Del), capEdges-1)
	}
	if len(got[2].Add) != 1 || len(got[2].Del) != 0 {
		t.Fatalf("overflow apply = %d adds / %d dels, want 1/0", len(got[2].Add), len(got[2].Del))
	}
	for _, tk := range []*serve.Ticket{t1, t2} {
		a, err := tk.Wait(nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.Seq != 2 || a.Batches != 2 {
			t.Fatalf("merged ticket resolved to %+v, want Seq=2 Batches=2", a)
		}
	}
	a, err := t3.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seq != 3 || a.Batches != 1 {
		t.Fatalf("overflow ticket resolved to %+v, want Seq=3 Batches=1", a)
	}
}

// TestOversizedBatchAppliedWhole: a single submitted batch larger than
// DefaultMaxBatchEdges is applied whole, by itself — batches are never
// split, and nothing merges into an already-over-cap accumulator.
func TestOversizedBatchAppliedWhole(t *testing.T) {
	s := newStubApplier()
	l := serve.NewLoop(s, serve.Options{QueueDepth: 16})
	queueFirstBatch(t, l, s, addBatch(edge(9, 9)))

	bigEdges := serve.DefaultMaxBatchEdges + 5
	big := fanBatch(0, bigEdges)
	if _, err := l.Submit(nil, big); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Submit(nil, addBatch(edge(1, 2))); err != nil {
		t.Fatal(err)
	}

	close(s.gate)
	if err := l.Close(nil); err != nil {
		t.Fatal(err)
	}

	got := s.batches()
	if len(got) != 3 {
		t.Fatalf("applied %d batches, want 3 (gate batch, oversized alone, trailer)", len(got))
	}
	if len(got[1].Add) != bigEdges {
		t.Fatalf("oversized batch applied with %d adds, want all %d in one call", len(got[1].Add), bigEdges)
	}
	if len(got[2].Add) != 1 {
		t.Fatalf("batch after the oversized one has %d adds, want 1 (not merged over cap)", len(got[2].Add))
	}
}

// TestSubmitBlockedOnFullQueueUnblocksOnClose: a Submit blocked waiting
// for queue space must not deadlock when the loop closes — it wakes and
// returns ErrClosed, and its batch never reaches the applier.
func TestSubmitBlockedOnFullQueueUnblocksOnClose(t *testing.T) {
	s := newStubApplier()
	l := serve.NewLoop(s, serve.Options{QueueDepth: 1})
	queueFirstBatch(t, l, s, addBatch(edge(0, 1)))
	if _, err := l.Submit(nil, addBatch(edge(0, 2))); err != nil {
		t.Fatal(err) // fills the queue
	}

	blocked := make(chan error, 1)
	go func() {
		_, err := l.Submit(nil, addBatch(edge(0, 3)))
		blocked <- err
	}()
	// Give the goroutine time to park in the queue-space wait; it must
	// still be blocked before Close.
	select {
	case err := <-blocked:
		t.Fatalf("Submit returned %v before Close with a full queue", err)
	case <-time.After(20 * time.Millisecond):
	}

	closed := make(chan error, 1)
	go func() { closed <- l.Close(nil) }()

	select {
	case err := <-blocked:
		if !errors.Is(err, serve.ErrClosed) {
			t.Fatalf("blocked Submit returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit stayed blocked after Close")
	}

	close(s.gate)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	for _, b := range s.batches() {
		for _, e := range b.Add {
			if e.To == 3 {
				t.Fatal("batch from the refused Submit was applied")
			}
		}
	}
}

// TestFailureTakesPrecedenceOverClosed: once the loop has failed
// terminally, Submit reports the failure — not ErrClosed — even after
// Close, so producers see why the writer died rather than a generic
// shutdown. Close stays idempotent and keeps returning the failure.
func TestFailureTakesPrecedenceOverClosed(t *testing.T) {
	s := newStubApplier()
	s.failOn = 1
	close(s.gate)
	l := serve.NewLoop(s, serve.Options{QueueDepth: 16})
	tk, err := l.Submit(nil, addBatch(edge(0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(nil); err == nil {
		t.Fatal("failing apply resolved its ticket without error")
	}

	first := l.Close(nil)
	if first == nil {
		t.Fatal("Close returned nil after a terminal failure")
	}
	if again := l.Close(nil); !errors.Is(again, first) && again.Error() != first.Error() {
		t.Fatalf("second Close returned %v, first returned %v", again, first)
	}

	_, err = l.Submit(nil, addBatch(edge(0, 2)))
	if err == nil {
		t.Fatal("Submit accepted after terminal failure")
	}
	if errors.Is(err, serve.ErrClosed) {
		t.Fatalf("Submit after failure returned ErrClosed (%v), want the terminal failure", err)
	}
	if !errors.Is(err, l.Err()) && err.Error() != l.Err().Error() {
		t.Fatalf("Submit after failure returned %v, want the loop failure %v", err, l.Err())
	}
	if !strings.Contains(err.Error(), "injected apply failure") {
		t.Fatalf("failure %v does not surface the apply error", err)
	}
}

// TestTerminalFailureTicketOrdering pins how tickets resolve when an
// apply fails with more work queued behind it: the failing batch's
// ticket carries the apply's sequence number and the raw apply error,
// while every batch queued behind it is failed without ever reaching
// the applier — Seq 0, and the loop's wrapped terminal failure (which
// unwraps to the same root cause).
func TestTerminalFailureTicketOrdering(t *testing.T) {
	s := newStubApplier()
	s.failOn = 2
	l := serve.NewLoop(s, serve.Options{QueueDepth: 16, DisableCoalescing: true})
	t1 := queueFirstBatch(t, l, s, addBatch(edge(0, 1)))
	t2, err := l.Submit(nil, addBatch(edge(0, 2)))
	if err != nil {
		t.Fatal(err)
	}
	t3, err := l.Submit(nil, addBatch(edge(0, 3)))
	if err != nil {
		t.Fatal(err)
	}
	t4, err := l.Submit(nil, addBatch(edge(0, 4)))
	if err != nil {
		t.Fatal(err)
	}
	close(s.gate)

	// The batch before the failure completes cleanly with its own seq.
	a1, err := t1.Wait(nil)
	if err != nil {
		t.Fatalf("batch before the failure resolved with %v", err)
	}
	if a1.Seq != 1 || a1.Err != nil {
		t.Fatalf("first ticket = %+v, want Seq=1 Err=nil", a1)
	}

	// The failing batch's ticket reports the apply that killed it.
	a2, err2 := t2.Wait(nil)
	if err2 == nil {
		t.Fatal("failing batch resolved without error")
	}
	if a2.Seq != 2 {
		t.Fatalf("failing ticket Seq = %d, want 2 (it did reach the applier)", a2.Seq)
	}

	// Batches queued behind the failure never reach the applier: their
	// tickets carry Seq 0 and the loop's terminal failure, which wraps
	// the apply error that actually occurred.
	for i, tk := range []*serve.Ticket{t3, t4} {
		a, err := tk.Wait(nil)
		if err == nil {
			t.Fatalf("ticket %d behind the failure resolved cleanly", i+3)
		}
		if a.Seq != 0 || a.Batches != 0 {
			t.Fatalf("ticket %d = %+v, want Seq=0 Batches=0 (never applied)", i+3, a)
		}
		if !errors.Is(err, err2) {
			t.Fatalf("ticket %d error %v does not wrap the root apply error %v", i+3, err, err2)
		}
		if !strings.Contains(err.Error(), "serve: apply:") {
			t.Fatalf("ticket %d error %v is not the wrapped terminal failure", i+3, err)
		}
	}

	if got := s.batches(); len(got) != 2 {
		t.Fatalf("%d batches reached the applier, want 2", len(got))
	}
	// Seq counts successful applies only; the failed attempt reported
	// attempt number 2 on its ticket without consuming it.
	if l.Seq() != 1 {
		t.Fatalf("Seq() = %d after terminal failure, want 1", l.Seq())
	}
	if err := l.Close(nil); err == nil {
		t.Fatal("Close returned nil after terminal failure")
	}
}
