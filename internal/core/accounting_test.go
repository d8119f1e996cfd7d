package core_test

import (
	"bytes"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stream"
)

// TestHistoryAccountingIsExact: the dependency store's entry count and
// footprint, kept per 512-vertex block and written by parallel vertex
// loops, equal a recount over its exported histories after the initial
// run, after 50 refined batches, and after a checkpoint round trip
// (Export then Import, the path ReadSnapshot takes), for a flat
// aggregate (PageRank) and a pointer-holding one (BP). The graph has
// four blocks, so at more than one proc the loops split them between
// workers; make race runs this at -cpu 2,4,8.
func TestHistoryAccountingIsExact(t *testing.T) {
	s, err := stream.FromEdges(1600, gen.RMAT(17, 1600, 12000, gen.WeightUniform),
		stream.Config{BatchSize: 10, DeleteFraction: 0.25, NumBatches: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("PageRank", func(t *testing.T) { checkAccounting(t, s, algorithms.NewPageRank) })
	t.Run("BeliefProp", func(t *testing.T) {
		checkAccounting(t, s, func() *algorithms.BeliefProp { return algorithms.NewBeliefProp(3) })
	})
}

func checkAccounting[V, A any, P core.Program[V, A]](t *testing.T, s *stream.Stream, program func() P) {
	opts := core.Options{MaxIterations: 10, Horizon: 8}
	eng, err := core.NewEngine[V, A](s.Base, program(), opts)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	requireExactAccounting(t, eng, "after Run")
	for _, b := range s.Batches {
		if _, err := eng.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	requireExactAccounting(t, eng, "after 50 batches")

	var buf bytes.Buffer
	if err := eng.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := core.NewEngine[V, A](graph.MustBuild(1, nil), program(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	requireExactAccounting(t, restored, "after a checkpoint round trip")
	if a, b := restored.HistoryBytes(), eng.HistoryBytes(); a != b {
		t.Fatalf("restored HistoryBytes %d, original %d", a, b)
	}
}

func requireExactAccounting[V, A any](t *testing.T, eng *core.Engine[V, A], when string) {
	t.Helper()
	entries, heapBytes, wantEntries, wantBytes := eng.HistoryAccounting()
	if wantEntries == 0 {
		t.Fatalf("%s: the store holds no entries", when)
	}
	if entries != wantEntries || heapBytes != wantBytes {
		t.Fatalf("%s: Entries %d, HeapBytes %d; a recount over Export gives %d, %d", when, entries, heapBytes, wantEntries, wantBytes)
	}
}
