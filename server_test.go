package graphbolt_test

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	graphbolt "repro"
	"repro/internal/core/difftest"
)

// valuesChecksum folds a value slice into a single float64 so a reader
// can fingerprint a snapshot at observation time and the test can prove
// the slice was never mutated afterwards (bit-exact comparison).
func valuesChecksum(vals []float64) float64 {
	var sum float64
	for i, v := range vals {
		sum += v * float64(i+1)
	}
	return sum
}

// observedSnap is one snapshot a reader goroutine saw mid-stream,
// together with the checksum it computed at observation time.
type observedSnap struct {
	snap *graphbolt.ResultSnapshot[float64]
	sum  float64
}

// TestServerConcurrentReadersStress is the BSP-consistency stress test:
// 8 reader goroutines hammer Snapshot/Query while 50+ mutation batches
// stream through Submit. Every snapshot any reader observes must be
// internally consistent (values sized to its own graph, generation
// monotonic per reader) and — the paper's §2.2 guarantee — equal to a
// from-scratch run on that snapshot's graph. Run under -race.
func TestServerConcurrentReadersStress(t *testing.T) {
	const (
		readers = 8
		maxIter = 8
		eps     = 1e-6
	)
	st, err := graphbolt.NewRMATStream(7, 96, 1200, graphbolt.StreamConfig{
		BatchSize:      12,
		DeleteFraction: 0.25,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Batches) < 50 {
		t.Fatalf("stream too short for stress test: %d batches", len(st.Batches))
	}
	eng, err := graphbolt.NewEngine[float64, float64](st.Base, graphbolt.NewPageRank(),
		graphbolt.Options{MaxIterations: maxIter})
	if err != nil {
		t.Fatal(err)
	}
	var applies, applied atomic.Int64
	srv := graphbolt.NewServer(eng, graphbolt.ServerOptions{
		OnApply: func(ap graphbolt.Applied) {
			applies.Add(1)
			applied.Add(int64(ap.Batches))
		},
	})

	var (
		mu       sync.Mutex
		observed = map[uint64]observedSnap{}
		done     = make(chan struct{})
		wg       sync.WaitGroup
	)
	record := func(s *graphbolt.ResultSnapshot[float64]) {
		sum := valuesChecksum(s.Values)
		mu.Lock()
		if _, ok := observed[s.Generation]; !ok {
			observed[s.Generation] = observedSnap{snap: s, sum: sum}
		}
		mu.Unlock()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastGen uint64
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				var s *graphbolt.ResultSnapshot[float64]
				if r%2 == 0 {
					s = srv.Snapshot()
				} else {
					srv.Query(func(q *graphbolt.ResultSnapshot[float64]) { s = q })
				}
				if s == nil {
					t.Error("reader observed nil snapshot")
					return
				}
				if s.Generation < lastGen {
					t.Errorf("reader %d: generation went backwards: %d after %d",
						r, s.Generation, lastGen)
					return
				}
				lastGen = s.Generation
				if len(s.Values) != s.Graph.NumVertices() {
					t.Errorf("reader %d: torn snapshot at gen %d: %d values for %d vertices",
						r, s.Generation, len(s.Values), s.Graph.NumVertices())
					return
				}
				record(s)
				if i%64 == 0 {
					runtime.Gosched()
				}
			}
		}(r)
	}

	// Pin the pre-stream generation from the main goroutine: on a busy
	// one-core machine the readers may not be scheduled until every
	// batch has already applied, and the distinct-generation floor
	// below must not depend on that scheduler race.
	record(srv.Snapshot())

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, b := range st.Batches {
		if _, err := srv.Submit(ctx, b); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	final, err := srv.Sync(ctx)
	if err != nil {
		t.Fatalf("sync: %v", err)
	}
	record(final)
	close(done)
	wg.Wait()
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}

	if got := applied.Load(); got != int64(len(st.Batches)) {
		t.Fatalf("applied %d of %d submitted batches", got, len(st.Batches))
	}
	if applies.Load() > int64(len(st.Batches)) {
		t.Fatalf("more apply calls (%d) than batches (%d)", applies.Load(), len(st.Batches))
	}
	if len(observed) < 2 {
		t.Fatalf("readers observed only %d distinct generations", len(observed))
	}

	gens := make([]uint64, 0, len(observed))
	for g := range observed {
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	t.Logf("observed %d distinct generations out of %d apply calls (%d batches coalesced)",
		len(observed), applies.Load(), len(st.Batches))

	for _, g := range gens {
		o := observed[g]
		if got := valuesChecksum(o.snap.Values); got != o.sum {
			t.Fatalf("gen %d: snapshot values mutated after publication (checksum %v, was %v)",
				g, got, o.sum)
		}
		fresh, err := graphbolt.NewEngine[float64, float64](o.snap.Graph, graphbolt.NewPageRank(),
			graphbolt.Options{Mode: graphbolt.ModeReset, MaxIterations: maxIter})
		if err != nil {
			t.Fatalf("gen %d: fresh engine: %v", g, err)
		}
		fresh.Run()
		want := fresh.Values()
		for v := range want {
			if !difftest.Approx(o.snap.Values[v], want[v], 0, eps) {
				t.Fatalf("gen %d: vertex %d: served %v, from-scratch %v",
					g, v, o.snap.Values[v], want[v])
			}
		}
	}
}

// TestServerSubmitWait checks the synchronous path: SubmitWait returns a
// snapshot whose generation covers the submitted batch and whose values
// reflect it.
func TestServerSubmitWait(t *testing.T) {
	g, err := graphbolt.BuildGraph(4, []graphbolt.Edge{
		{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := graphbolt.NewEngine[float64, float64](g, graphbolt.NewPageRank(),
		graphbolt.Options{MaxIterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	srv := graphbolt.NewServer(eng, graphbolt.ServerOptions{})
	gen0 := srv.Generation()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	snap, err := srv.SubmitWait(ctx, graphbolt.Batch{
		Add: []graphbolt.Edge{{From: 2, To: 3, Weight: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Generation <= gen0 {
		t.Fatalf("generation did not advance: %d -> %d", gen0, snap.Generation)
	}
	if snap.Graph.NumEdges() != 3 {
		t.Fatalf("snapshot graph has %d edges, want 3", snap.Graph.NumEdges())
	}
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Reads stay valid after Close; writes are refused.
	if got := srv.Snapshot(); got == nil || got.Generation != snap.Generation {
		t.Fatalf("post-close snapshot lost: %+v", got)
	}
	if _, err := srv.Submit(ctx, graphbolt.Batch{}); err == nil {
		t.Fatal("submit after close succeeded")
	}
}

// TestServerWaitContext checks that Wait respects its context when the
// requested generation never arrives.
func TestServerWaitContext(t *testing.T) {
	g, err := graphbolt.BuildGraph(3, []graphbolt.Edge{{From: 0, To: 1, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := graphbolt.NewEngine[float64, float64](g, graphbolt.NewPageRank(),
		graphbolt.Options{MaxIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := graphbolt.NewServer(eng, graphbolt.ServerOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := srv.Wait(ctx, srv.Generation()+100); err != context.DeadlineExceeded {
		t.Fatalf("wait returned %v, want deadline exceeded", err)
	}
	if err := srv.Close(nil); err != nil {
		t.Fatal(err)
	}
	// Waiting past close for an unreachable generation fails cleanly.
	if _, err := srv.Wait(context.Background(), srv.Generation()+100); err == nil {
		t.Fatal("wait after close for unreachable generation succeeded")
	}
}

// TestDurableServer checks the journaled path: batches submitted through
// the server are journaled inside the apply loop, so a reopen after
// Close recovers the exact served state.
func TestDurableServer(t *testing.T) {
	dir := t.TempDir()
	build := func() (*graphbolt.Engine[float64, float64], error) {
		g, err := graphbolt.BuildGraph(6, []graphbolt.Edge{
			{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 1},
			{From: 2, To: 3, Weight: 1},
		})
		if err != nil {
			return nil, err
		}
		return graphbolt.NewEngine[float64, float64](g, graphbolt.NewPageRank(),
			graphbolt.Options{MaxIterations: 6})
	}
	eng, err := build()
	if err != nil {
		t.Fatal(err)
	}
	d, err := graphbolt.OpenDurable(eng, dir, graphbolt.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := graphbolt.NewDurableServer(d, graphbolt.ServerOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	batches := []graphbolt.Batch{
		{Add: []graphbolt.Edge{{From: 3, To: 4, Weight: 1}}},
		{Add: []graphbolt.Edge{{From: 4, To: 5, Weight: 1}}},
		{Del: []graphbolt.Edge{{From: 0, To: 1}}},
	}
	for _, b := range batches {
		if _, err := srv.Submit(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := srv.Sync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}

	eng2, err := build()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := graphbolt.OpenDurable(eng2, dir, graphbolt.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Core().Graph().NumEdges() != snap.Graph.NumEdges() {
		t.Fatalf("recovered %d edges, served snapshot had %d",
			d2.Core().Graph().NumEdges(), snap.Graph.NumEdges())
	}
	rec := d2.Values()
	if len(rec) != len(snap.Values) {
		t.Fatalf("recovered %d values, want %d", len(rec), len(snap.Values))
	}
	for v := range rec {
		if !difftest.Approx(rec[v], snap.Values[v], 0, 1e-9) {
			t.Fatalf("vertex %d: recovered %v, served %v", v, rec[v], snap.Values[v])
		}
	}
}
