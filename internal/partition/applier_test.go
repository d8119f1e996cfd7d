package partition

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/core/difftest"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
)

const fixtureIters = 5

// twoShardFixture builds a 16-vertex graph explicitly partitioned so
// vertices 0..7 belong to shard 0 and 8..15 to shard 1, with a few
// in-shard base edges on each side, and one fresh engine per shard.
func twoShardFixture(t *testing.T) (*Partitioner, []*core.Engine[float64, float64], *graph.Graph) {
	t.Helper()
	assign := make(map[graph.VertexID]int)
	for v := 0; v < 16; v++ {
		assign[graph.VertexID(v)] = v / 8
	}
	pt := mustNew(t, 2, assign)
	g, err := graph.Build(16, []graph.Edge{
		{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 1}, {From: 2, To: 0, Weight: 1},
		{From: 8, To: 9, Weight: 1}, {From: 9, To: 10, Weight: 1}, {From: 10, To: 8, Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := pt.SplitGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*core.Engine[float64, float64], 2)
	for s, sg := range parts {
		engines[s], err = core.NewEngine[float64, float64](sg, algorithms.NewPageRank(), core.Options{MaxIterations: fixtureIters})
		if err != nil {
			t.Fatal(err)
		}
	}
	return pt, engines, g
}

// checkAgainstScratch compares a merged snapshot with a from-scratch
// run over base plus the given batches.
func checkAgainstScratch(t *testing.T, snap *core.ResultSnapshot[float64], base *graph.Graph, batches ...graph.Batch) {
	t.Helper()
	g := base
	for _, b := range batches {
		g, _ = g.Apply(b)
	}
	if snap.Graph.NumEdges() != g.NumEdges() || snap.Graph.NumVertices() != g.NumVertices() {
		t.Fatalf("merged graph %d vertices / %d edges, want %d / %d",
			snap.Graph.NumVertices(), snap.Graph.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	fresh, err := core.NewEngine[float64, float64](g, algorithms.NewPageRank(),
		core.Options{Mode: core.ModeReset, MaxIterations: fixtureIters})
	if err != nil {
		t.Fatal(err)
	}
	fresh.Run()
	want := fresh.Values()
	if len(snap.Values) != len(want) {
		t.Fatalf("%d merged values, %d from scratch", len(snap.Values), len(want))
	}
	for v := range want {
		if !difftest.Approx(snap.Values[v], want[v], 0, 1e-9) {
			t.Fatalf("vertex %d: merged %v, from scratch %v", v, snap.Values[v], want[v])
		}
	}
}

// Splitting a batch over the shards and joining them publishes exactly
// one merged generation per apply whose graph and values equal a
// from-scratch run, and the cross/single counters classify each batch
// by how many shards it touched.
func TestApplierSplitJoinExactness(t *testing.T) {
	pt, engines, base := twoShardFixture(t)
	reg := obs.NewRegistry()
	a, err := NewApplier(pt, engines, base, reg)
	if err != nil {
		t.Fatal(err)
	}
	gen0 := a.View().Snapshot().Generation
	shardGen0 := []uint64{engines[0].Snapshot().Generation, engines[1].Snapshot().Generation}
	checkAgainstScratch(t, a.View().Snapshot(), base)

	batches := []graph.Batch{
		// Spans both shards: 3→4 is shard 0's, 11→12 shard 1's.
		{Add: []graph.Edge{{From: 3, To: 4, Weight: 1}, {From: 11, To: 12, Weight: 2}},
			Del: []graph.Edge{{From: 2, To: 0}}},
		// Shard 1 only.
		{Add: []graph.Edge{{From: 12, To: 8, Weight: 1}}},
		// Empty: touches no shard, still a generation.
		{},
	}
	for i, b := range batches {
		if _, err := a.ApplyBatch(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		snap := a.View().Snapshot()
		if want := gen0 + uint64(i) + 1; snap.Generation != want {
			t.Fatalf("batch %d: generation %d, want %d", i, snap.Generation, want)
		}
		checkAgainstScratch(t, snap, base, batches[:i+1]...)
	}
	// Each shard published once per batch that touched it.
	for s, want := range []uint64{1, 2} {
		if got := engines[s].Snapshot().Generation - shardGen0[s]; got != want {
			t.Fatalf("shard %d advanced %d generations, want %d", s, got, want)
		}
	}
	m := reg.Snapshot()
	if c, s := m.Counters["graphbolt_shard_cross_batches_total"], m.Counters["graphbolt_shard_single_batches_total"]; c != 1 || s != 2 {
		t.Fatalf("cross/single counters = %d/%d, want 1/2", c, s)
	}
	if g := m.Gauges["graphbolt_shard_merged_generation"]; g != float64(gen0+3) {
		t.Fatalf("merged generation gauge = %v, want %d", g, gen0+3)
	}

	// A malformed batch is refused whole: no shard applies its valid half.
	bad := graph.Batch{Add: []graph.Edge{{From: 3, To: 5, Weight: 1}, {From: 11, To: 13, Weight: math.NaN()}}}
	if _, err := a.ApplyBatch(bad); !errors.Is(err, graph.ErrInvalidBatch) {
		t.Fatalf("malformed batch: %v, want ErrInvalidBatch", err)
	}
	if got := engines[0].Snapshot().Generation - shardGen0[0]; got != 1 {
		t.Fatalf("shard 0 advanced %d generations after a refused batch, want 1", got)
	}
}

// trippableRank is PageRank that panics computing its victim vertex
// once tripped: a mid-apply engine failure.
type trippableRank struct {
	*algorithms.PageRank
	victim  graph.VertexID
	tripped bool
}

func (p *trippableRank) Compute(v graph.VertexID, agg float64) float64 {
	if p.tripped && v == p.victim {
		panic("partition test: tripped victim vertex")
	}
	return p.PageRank.Compute(v, agg)
}

// A shard engine's failure surfaces naming the shard and wrapping the
// engine's *parallel.PanicError (which the loop treats as terminal),
// and nothing is published.
func TestApplierTerminalFailureNamesShard(t *testing.T) {
	pt, engines, base := twoShardFixture(t)
	prog := &trippableRank{PageRank: algorithms.NewPageRank(), victim: 12}
	var err error
	engines[1], err = core.NewEngine[float64, float64](engines[1].Graph(), prog, core.Options{MaxIterations: fixtureIters})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewApplier(pt, engines, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen0 := a.View().Snapshot().Generation
	prog.tripped = true
	_, err = a.ApplyBatch(graph.Batch{Add: []graph.Edge{{From: 11, To: 12, Weight: 1}}})
	var pe *parallel.PanicError
	if !errors.As(err, &pe) || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("ApplyBatch = %v, want a *parallel.PanicError naming shard 1", err)
	}
	if g := a.View().Snapshot().Generation; g != gen0 {
		t.Fatalf("generation advanced to %d on a failed apply", g)
	}
}
