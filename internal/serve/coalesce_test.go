package serve_test

import (
	"fmt"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/core/difftest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/stream"
)

func valuesMatch(t *testing.T, got, want []float64, eps float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for v := range got {
		if !difftest.Approx(got[v], want[v], 0, eps) {
			t.Fatalf("%s: vertex %d: got %v want %v", label, v, got[v], want[v])
		}
	}
}

// gatedEngine wraps a real engine, blocking the first apply until gate
// is closed so the test can pile the whole stream into the queue and
// force maximal coalescing.
type gatedEngine struct {
	inner   serve.Applier
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedEngine) ApplyBatch(b graph.Batch) (core.Stats, error) {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.gate
	return g.inner.ApplyBatch(b)
}

// checkCoalescingEquivalence is the serving counterpart of the durable
// package's recovery-equivalence harness: streaming the batches through
// the apply loop — whatever subset of them the loop decides to coalesce
// under the DefaultMaxBatchEdges merge cap — must end with the same
// values as applying every batch individually. It returns the number of
// apply calls the loop made.
func checkCoalescingEquivalence(t *testing.T, batches []graph.Batch, newEngine func() *core.Engine[float64, float64], eps float64) uint64 {
	t.Helper()
	want := newEngine()
	want.Run()
	for _, b := range batches {
		if _, err := want.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}

	got := newEngine()
	got.Run()
	ga := &gatedEngine{inner: got, entered: make(chan struct{}, 1), gate: make(chan struct{})}
	l := serve.NewLoop(ga, serve.Options{QueueDepth: len(batches) + 1})
	if _, err := l.Submit(nil, batches[0]); err != nil {
		t.Fatal(err)
	}
	<-ga.entered // loop is inside apply #1; the rest will queue up
	for _, b := range batches[1:] {
		if _, err := l.Submit(nil, b); err != nil {
			t.Fatal(err)
		}
	}
	close(ga.gate)
	if err := l.Close(nil); err != nil {
		t.Fatal(err)
	}
	valuesMatch(t, got.Values(), want.Values(), eps, "coalescing equivalence")
	if g, w := got.Graph().NumEdges(), want.Graph().NumEdges(); g != w {
		t.Fatalf("coalesced graph has %d edges, sequential has %d", g, w)
	}
	return l.Seq()
}

func TestCoalescingEquivalencePageRank(t *testing.T) {
	// DeleteFraction 0.3: deletions regularly target edges added by
	// still-queued batches, so the compatibility guard must split merge
	// runs for the final values to come out right.
	edges := gen.RMAT(41, 120, 900, gen.WeightUniform)
	s, err := stream.FromEdges(120, edges, stream.Config{BatchSize: 40, DeleteFraction: 0.3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	newEngine := func() *core.Engine[float64, float64] {
		e, err := core.NewEngine[float64, float64](s.Base, algorithms.NewPageRank(), core.Options{MaxIterations: 8})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	seq := checkCoalescingEquivalence(t, s.Batches, newEngine, 1e-6)
	if seq >= uint64(len(s.Batches)) {
		t.Fatalf("loop made %d applies for %d batches: nothing coalesced", seq, len(s.Batches))
	}
}

func TestCoalescingEquivalenceSSSP(t *testing.T) {
	edges := gen.RMAT(43, 120, 900, gen.WeightSmallInt)
	s, err := stream.FromEdges(120, edges, stream.Config{BatchSize: 40, DeleteFraction: 0.3, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	newEngine := func() *core.Engine[float64, float64] {
		e, err := core.NewEngine[float64, float64](s.Base, algorithms.NewSSSP(0), core.Options{MaxIterations: 50})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	checkCoalescingEquivalence(t, s.Batches, newEngine, 1e-9)
}

// TestCoalescingEquivalenceChangingCap: the BSP-equivalence guarantee
// must be insensitive to WHERE the cap slices the queue into merge
// runs. Subtest cap=c sizes its stream's batches so that at most c of
// them fit under DefaultMaxBatchEdges (40 edges at least) and queues n
// of them, enough for the cap to cut a run: from c=1 — every batch fills
// the cap, so nothing merges — to effectively unbounded. Every run must
// match sequential application.
func TestCoalescingEquivalenceChangingCap(t *testing.T) {
	for _, tc := range []struct{ c, n int }{{1, 4}, {3, 8}, {80, 90}, {1 << 20, 20}} {
		c, n := tc.c, tc.n
		t.Run(fmt.Sprintf("cap=%d", c), func(t *testing.T) {
			size := max(serve.DefaultMaxBatchEdges/c, 40)
			edges := gen.RMAT(53, 1024, 2*size*n, gen.WeightUniform)
			s, err := stream.FromEdges(1024, edges, stream.Config{BatchSize: size, NumBatches: n, DeleteFraction: 0.3, Seed: 12})
			if err != nil {
				t.Fatal(err)
			}
			if len(s.Batches) != n {
				t.Fatalf("stream yielded %d batches, want %d", len(s.Batches), n)
			}
			newEngine := func() *core.Engine[float64, float64] {
				e, err := core.NewEngine[float64, float64](s.Base, algorithms.NewPageRank(), core.Options{MaxIterations: 8})
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			seq := checkCoalescingEquivalence(t, s.Batches, newEngine, 1e-6)
			if least := uint64(1 + (n-1+c-1)/c); seq < least {
				t.Fatalf("%d applies for %d batches: more than %d merged into one apply", seq, n, c)
			}
			if c == 1 && seq != uint64(len(s.Batches)) {
				t.Fatalf("cap 1 made %d applies for %d batches: something merged", seq, len(s.Batches))
			}
			if c == 1<<20 && seq >= uint64(len(s.Batches)) {
				t.Fatalf("uncapped loop made %d applies for %d batches: nothing coalesced", seq, len(s.Batches))
			}
		})
	}
}

// TestCoalescingEquivalenceAddOnly: with no deletions every queued
// batch is compatible, so the entire queued suffix collapses into one
// apply call — and the result still matches sequential application.
func TestCoalescingEquivalenceAddOnly(t *testing.T) {
	edges := gen.RMAT(47, 100, 800, gen.WeightUniform)
	s, err := stream.FromEdges(100, edges, stream.Config{BatchSize: 50, DeleteFraction: 0, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	newEngine := func() *core.Engine[float64, float64] {
		e, err := core.NewEngine[float64, float64](s.Base, algorithms.NewPageRank(), core.Options{MaxIterations: 8})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	if seq := checkCoalescingEquivalence(t, s.Batches, newEngine, 1e-6); seq != 2 {
		t.Fatalf("loop made %d applies, want 2 (first batch alone, all-compatible rest merged)", seq)
	}
}
