package graphbolt_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	graphbolt "repro"
	"repro/internal/algorithms"
	"repro/internal/core"
)

// TestServingContract pins the documented serving contracts — so doc
// drift becomes a test failure, not a surprise for integrators — at
// both serving widths: one engine, and two shard engines behind the
// same ingest loop. Every contract is server-wide; the width must not
// change what a caller observes.
func TestServingContract(t *testing.T) {
	contracts := []struct {
		name string
		run  func(t *testing.T, shards int)
	}{
		{"SnapshotNilBeforeRun", contractSnapshotNilBeforeRun},
		{"WaitReturnsFirstAtLeast", contractWaitReturnsFirstAtLeast},
		{"PoisonQuarantinedOnce", contractPoisonQuarantinedOnce},
		{"TerminalFailureOutranksClosed", contractTerminalFailureOutranksClosed},
		{"QueueFullRetryPreservesOrder", contractQueueFullRetryPreservesOrder},
	}
	for _, c := range contracts {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/Shards%d", c.name, shards), func(t *testing.T) { c.run(t, shards) })
		}
	}
}

// Engine.Snapshot (and Values) return nil until the first
// Run/ApplyBatch/ReadSnapshot publishes — readers must handle a nil
// snapshot during startup. NewServer performs that first computation,
// so a server always has generation 1 to serve.
func contractSnapshotNilBeforeRun(t *testing.T, shards int) {
	g, err := graphbolt.BuildGraph(3, []graphbolt.Edge{{From: 0, To: 1, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := graphbolt.NewEngine[float64, float64](g, graphbolt.NewPageRank(), graphbolt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if snap := eng.Snapshot(); snap != nil {
		t.Fatalf("Snapshot before Run = %+v, want nil", snap)
	}
	if vals := eng.Values(); vals != nil {
		t.Fatalf("Values before Run = %v, want nil", vals)
	}
	var nilSnap *graphbolt.ResultSnapshot[float64]
	if got := nilSnap.CopyValues(); got != nil {
		t.Fatalf("nil snapshot CopyValues = %v, want nil", got)
	}
	srv := graphbolt.NewServer(eng, graphbolt.ServerOptions{Shards: shards})
	defer srv.Close(context.Background())
	if snap := srv.Snapshot(); snap == nil || snap.Generation != 1 || len(snap.Values) != 3 {
		t.Fatalf("Snapshot after NewServer = %+v, want generation 1 over 3 vertices", snap)
	}
}

// Server.Wait(ctx, gen) resolves with the first snapshot whose
// Generation is >= gen — NOT an exact match. A reader that calls
// Wait(2) after the writer reached generation 5 gets generation 5, and
// a reader waiting on a future generation gets whatever generation
// first satisfies the bound.
func contractWaitReturnsFirstAtLeast(t *testing.T, shards int) {
	g, err := graphbolt.BuildGraph(4, []graphbolt.Edge{{From: 0, To: 1, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := graphbolt.NewEngine[float64, float64](g, graphbolt.NewPageRank(), graphbolt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := graphbolt.NewServer(eng, graphbolt.ServerOptions{DisableCoalescing: true, Shards: shards})
	defer srv.Close(context.Background())
	ctx := context.Background()

	// Drive the server to generation 5 (initial run + 4 batches).
	for i := 0; i < 4; i++ {
		b := graphbolt.Batch{Add: []graphbolt.Edge{
			{From: graphbolt.VertexID(i % 4), To: graphbolt.VertexID((i + 1) % 4), Weight: 1},
		}}
		if _, err := srv.SubmitWait(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	if gen := srv.Generation(); gen != 5 {
		t.Fatalf("generation = %d, want 5", gen)
	}

	// Waiting on an already-passed generation returns the CURRENT
	// snapshot (generation 5), not a historical generation-2 one.
	snap, err := srv.Wait(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Generation != 5 {
		t.Fatalf("Wait(2) returned generation %d, want 5 (first >= 2 observed)", snap.Generation)
	}

	// Waiting on a future generation blocks until some snapshot with
	// Generation >= gen publishes, then returns it.
	done := make(chan *graphbolt.ResultSnapshot[float64], 1)
	go func() {
		s, err := srv.Wait(ctx, 6)
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		done <- s
	}()
	select {
	case <-done:
		t.Fatal("Wait(6) resolved before generation 6 was published")
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := srv.SubmitWait(ctx, graphbolt.Batch{Add: []graphbolt.Edge{{From: 1, To: 3, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-done:
		if s == nil || s.Generation < 6 {
			t.Fatalf("Wait(6) returned %+v, want generation >= 6", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait(6) did not resolve after generation 6 published")
	}

	// A deadline while waiting on an unreachable generation surfaces
	// the context error, not a fabricated snapshot.
	short, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if _, err := srv.Wait(short, 99); err == nil {
		t.Fatal("Wait on unreachable generation returned without error")
	}
}

// A poison batch is quarantined exactly once, at dequeue, before any
// engine sees it: its ticket carries ErrInvalidBatch, the server stays
// Healthy and keeps applying, and the final state equals a from-scratch
// run over a stream that never contained it.
func contractPoisonQuarantinedOnce(t *testing.T, shards int) {
	const n = 30
	assign, pools := roundRobinAssign(n, 2)
	rng := rand.New(rand.NewSource(9))
	mirror := shardMirror{n: n, edges: closedEdges(rng, pools, 60)}
	g, err := graphbolt.BuildGraph(n, append([]graphbolt.Edge(nil), mirror.edges...))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := graphbolt.NewEngine[float64, float64](g, graphbolt.NewPageRank(),
		graphbolt.Options{MaxIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := graphbolt.NewServer(eng, graphbolt.ServerOptions{Shards: shards, ShardAssign: assign})
	ctx := context.Background()
	defer srv.Close(ctx)

	// The poison's valid edge and its invalid one belong to different
	// shards at width 2: neither half may land.
	poison := graphbolt.Batch{Add: []graphbolt.Edge{
		{From: 0, To: 2, Weight: 1},
		{From: 5, To: 7, Weight: math.NaN()},
	}}
	for i := 0; i < 6; i++ {
		if i == 3 {
			if _, err := srv.SubmitWait(ctx, poison); !errors.Is(err, graphbolt.ErrInvalidBatch) {
				t.Fatalf("poison SubmitWait = %v, want ErrInvalidBatch", err)
			}
		}
		b := randomClosedBatch(rng, mirror, pools)
		mirror = mirror.apply(b)
		if _, err := srv.SubmitWait(ctx, b); err != nil {
			t.Fatalf("SubmitWait batch %d: %v", i, err)
		}
	}
	if got := srv.QuarantinedTotal(); got != 1 {
		t.Fatalf("QuarantinedTotal() = %d, want 1", got)
	}
	q := srv.Quarantined()
	if len(q) != 1 || !errors.Is(q[0].Err, graphbolt.ErrInvalidBatch) {
		t.Fatalf("Quarantined() = %+v, want one ErrInvalidBatch record", q)
	}
	if st := srv.Health().State(); st != graphbolt.HealthHealthy {
		t.Fatalf("health = %v after a quarantined poison, want Healthy", st)
	}

	refG, err := graphbolt.BuildGraph(mirror.n, append([]graphbolt.Edge(nil), mirror.edges...))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := graphbolt.NewEngine[float64, float64](refG, graphbolt.NewPageRank(),
		graphbolt.Options{Mode: graphbolt.ModeReset, MaxIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	fresh.Run()
	snap := srv.Snapshot()
	if snap.Graph.NumEdges() != refG.NumEdges() {
		t.Fatalf("served graph has %d edges, the poison-free stream %d", snap.Graph.NumEdges(), refG.NumEdges())
	}
	valuesClose(t, snap.Values, fresh.Values(), 1e-6, "served vs poison-free from-scratch")
}

// trippableRank is PageRank with a remotely armed landmine: once
// tripped, computing the victim vertex panics. The engine's parallel
// runtime converts the panic into a *parallel.PanicError, which the
// apply loop treats as terminal — a public-API way to kill the writer.
type trippableRank struct {
	*algorithms.PageRank
	victim  core.VertexID
	tripped atomic.Bool
}

func (p *trippableRank) Compute(v core.VertexID, agg float64) float64 {
	if v == p.victim && p.tripped.Load() {
		panic("contract_test: tripped victim vertex")
	}
	return p.PageRank.Compute(v, agg)
}

// A terminal apply failure (a) fails that batch's ticket, (b) latches
// into Server.Err() — naming the shard when sharded — and Health, (c)
// fails later Submits fast with the same error while reads keep
// serving, and (d) keeps precedence over ErrServerClosed across Close.
func contractTerminalFailureOutranksClosed(t *testing.T, shards int) {
	const n = 20
	assign, _ := roundRobinAssign(n, 2)
	prog := &trippableRank{PageRank: graphbolt.NewPageRank(), victim: 5} // 5 % 2 → shard 1
	g, err := graphbolt.BuildGraph(n, []graphbolt.Edge{
		{From: 0, To: 2, Weight: 1}, {From: 1, To: 3, Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := graphbolt.NewEngine[float64, float64](g, prog, graphbolt.Options{MaxIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := graphbolt.NewServer(eng, graphbolt.ServerOptions{Shards: shards, ShardAssign: assign})
	ctx := context.Background()

	if _, err := srv.SubmitWait(ctx, graphbolt.Batch{Add: []graphbolt.Edge{
		{From: 0, To: 4, Weight: 1}, {From: 1, To: 5, Weight: 1},
	}}); err != nil {
		t.Fatalf("pre-trip SubmitWait: %v", err)
	}

	// Arm the landmine and recompute the victim: the apply dies.
	prog.tripped.Store(true)
	tk, err := srv.Submit(ctx, graphbolt.Batch{Add: []graphbolt.Edge{{From: 3, To: 5, Weight: 1}}})
	if err != nil {
		t.Fatalf("Submit trigger batch: %v", err)
	}
	if _, err := tk.Wait(ctx); err == nil {
		t.Fatal("trigger batch applied cleanly, want terminal failure")
	}
	terminal := srv.Err()
	if terminal == nil {
		t.Fatal("Err() is nil after the failed ticket resolved")
	}
	if shards > 1 && !strings.Contains(terminal.Error(), "shard 1") {
		t.Fatalf("Err() = %v, want the failing shard named", terminal)
	}
	if st := srv.Health().State(); st != graphbolt.HealthFailed {
		t.Fatalf("health = %v after a terminal failure, want Failed", st)
	}

	_, err = srv.Submit(ctx, graphbolt.Batch{Add: []graphbolt.Edge{{From: 0, To: 6, Weight: 1}}})
	if err == nil || err.Error() != terminal.Error() {
		t.Fatalf("post-failure Submit = %v, want fail-fast with %v", err, terminal)
	}
	if snap := srv.Snapshot(); snap == nil || len(snap.Values) == 0 {
		t.Fatal("reads stopped serving after the failure")
	}

	closeErr := srv.Close(ctx)
	if closeErr == nil || closeErr.Error() != terminal.Error() {
		t.Fatalf("Close() = %v, want the latched failure", closeErr)
	}
	if got := srv.Err(); got == nil || got.Error() != terminal.Error() {
		t.Fatalf("Err() changed across Close: %v vs %v", got, terminal)
	}
	_, err = srv.Submit(ctx, graphbolt.Batch{Add: []graphbolt.Edge{{From: 0, To: 8, Weight: 1}}})
	if err == nil || errors.Is(err, graphbolt.ErrServerClosed) || err.Error() != terminal.Error() {
		t.Fatalf("post-Close Submit = %v, want the terminal failure to outrank ErrServerClosed", err)
	}
}

// heldRank is PageRank whose Compute parks while hold holds an open
// channel, so a test can keep the first apply in flight until it has
// seen the queue refuse a submission.
type heldRank struct {
	*algorithms.PageRank
	hold atomic.Pointer[chan struct{}]
}

func (p *heldRank) Compute(v core.VertexID, agg float64) float64 {
	if h := p.hold.Load(); h != nil {
		<-*h
	}
	return p.PageRank.Compute(v, agg)
}

// Under SubmitReject the bounded queue is the only backpressure: a full
// queue refuses with ErrQueueFull carrying a positive RetryAfter, and a
// producer that sleeps the hint and resubmits — the CLI's loop — loses
// and reorders nothing: the final state equals a from-scratch run over
// the whole stream.
func contractQueueFullRetryPreservesOrder(t *testing.T, shards int) {
	const n = 30
	assign, pools := roundRobinAssign(n, 2)
	rng := rand.New(rand.NewSource(11))
	mirror := shardMirror{n: n, edges: closedEdges(rng, pools, 60)}
	g, err := graphbolt.BuildGraph(n, append([]graphbolt.Edge(nil), mirror.edges...))
	if err != nil {
		t.Fatal(err)
	}
	prog := &heldRank{PageRank: graphbolt.NewPageRank()}
	eng, err := graphbolt.NewEngine[float64, float64](g, prog, graphbolt.Options{MaxIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := graphbolt.NewServer(eng, graphbolt.ServerOptions{
		Shards: shards, ShardAssign: assign,
		QueueDepth: 1, Policy: graphbolt.SubmitReject,
	})
	ctx := context.Background()
	defer srv.Close(ctx)

	// The first apply parks until the producer has been refused once, so
	// at least one refusal is certain rather than a matter of timing.
	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	defer release()
	prog.hold.Store(&hold)

	batches := make([]graphbolt.Batch, 12)
	for i := range batches {
		batches[i] = randomClosedBatch(rng, mirror, pools)
		mirror = mirror.apply(batches[i])
	}
	var tickets []*graphbolt.SubmitTicket
	refusals := 0
	for _, b := range batches {
		for {
			tk, err := srv.Submit(ctx, b)
			if err == nil {
				tickets = append(tickets, tk)
				break
			}
			after, ok := graphbolt.RetryAfter(err)
			if !errors.Is(err, graphbolt.ErrQueueFull) || !ok || after <= 0 {
				t.Fatalf("Submit = %v (RetryAfter %v, %v), want ErrQueueFull with a positive hint", err, after, ok)
			}
			refusals++
			release()
			time.Sleep(after)
		}
	}
	if refusals == 0 {
		t.Fatal("a one-slot queue behind a parked apply never refused")
	}

	var prev uint64
	for i, tk := range tickets {
		ap, err := tk.Wait(ctx)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if ap.Seq < prev {
			t.Fatalf("batch %d applied at seq %d, after a later-submitted batch's %d", i, ap.Seq, prev)
		}
		prev = ap.Seq
	}
	snap, err := srv.Sync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	refG, err := graphbolt.BuildGraph(mirror.n, append([]graphbolt.Edge(nil), mirror.edges...))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Graph.NumEdges() != refG.NumEdges() {
		t.Fatalf("served graph has %d edges, the stream %d", snap.Graph.NumEdges(), refG.NumEdges())
	}
	fresh, err := graphbolt.NewEngine[float64, float64](refG, graphbolt.NewPageRank(),
		graphbolt.Options{Mode: graphbolt.ModeReset, MaxIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	fresh.Run()
	valuesClose(t, snap.Values, fresh.Values(), 1e-6, "served vs from-scratch")
}
