package core_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stream"
)

func TestSnapshotRoundTripPageRank(t *testing.T) {
	g := graph.MustBuild(100, gen.RMAT(51, 100, 800, gen.WeightUniform))
	opts := core.Options{MaxIterations: 8, Horizon: 5}
	orig, err := core.NewEngine[float64, float64](g, algorithms.NewPageRank(), opts)
	if err != nil {
		t.Fatal(err)
	}
	orig.Run()
	orig.ApplyBatch(makeBatch(orig.Graph(), 71, 10, 5))

	var buf bytes.Buffer
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh engine (dummy initial graph — replaced).
	restored, err := core.NewEngine[float64, float64](graph.MustBuild(1, nil), algorithms.NewPageRank(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	scalarsMatch(t, restored.Values(), orig.Values(), 0, "restored values")
	if restored.Level() != orig.Level() {
		t.Fatalf("level %d vs %d", restored.Level(), orig.Level())
	}

	// Crucially: streaming must continue correctly from the restored
	// state — the history must be intact for refinement.
	batch := makeBatch(orig.Graph(), 72, 12, 6)
	orig.ApplyBatch(batch)
	restored.ApplyBatch(batch)
	scalarsMatch(t, restored.Values(), orig.Values(), 1e-12, "post-restore refinement")
}

// TestSnapshotRoundTripNaiveCutShort checkpoints a ModeNaive SSSP engine
// right after an initial run that MaxIterations cut short, so the next
// batch must fold in the frontier that run left unsent. The restored
// engine must carry that frontier and publish the same bits as the
// original from then on.
func TestSnapshotRoundTripNaiveCutShort(t *testing.T) {
	s, err := stream.FromEdges(300, gen.RMAT(302, 300, 3000, gen.WeightSmallInt),
		stream.Config{BatchSize: 30, DeleteFraction: 0.25, Seed: 5, NumBatches: 6})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Mode: core.ModeNaive, MaxIterations: 3}
	orig, err := core.NewEngine[float64, float64](s.Base, algorithms.NewSSSP(0), opts)
	if err != nil {
		t.Fatal(err)
	}
	orig.Run()
	var buf bytes.Buffer
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := core.NewEngine[float64, float64](graph.MustBuild(1, nil), algorithms.NewSSSP(0), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range s.Batches {
		orig.ApplyBatch(b)
		restored.ApplyBatch(b)
		for v, want := range orig.Values() {
			if got := restored.Values()[v]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("batch %d after restore: vertex %d: %v, want %v", i, v, got, want)
			}
		}
	}
}

func TestSnapshotRoundTripVectorProgram(t *testing.T) {
	g := graph.MustBuild(60, gen.RMAT(52, 60, 400, gen.WeightUniform))
	lp := algorithms.NewLabelProp(3, map[core.VertexID]int{1: 0, 7: 2})
	opts := core.Options{MaxIterations: 6}
	orig, _ := core.NewEngine[[]float64, []float64](g, lp, opts)
	orig.Run()

	var buf bytes.Buffer
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, _ := core.NewEngine[[]float64, []float64](graph.MustBuild(1, nil), lp, opts)
	if err := restored.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	batch := makeBatch(orig.Graph(), 73, 8, 8)
	orig.ApplyBatch(batch)
	restored.ApplyBatch(batch)
	vectorsMatch(t, restored.Values(), orig.Values(), 1e-12, "LP post-restore")
}

func TestSnapshotOptionMismatchRejected(t *testing.T) {
	g := graph.MustBuild(10, []graph.Edge{{From: 0, To: 1, Weight: 1}})
	a, _ := core.NewEngine[float64, float64](g, algorithms.NewPageRank(), core.Options{MaxIterations: 5})
	a.Run()
	var buf bytes.Buffer
	if err := a.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	b, _ := core.NewEngine[float64, float64](g, algorithms.NewPageRank(), core.Options{MaxIterations: 9})
	if err := b.ReadSnapshot(&buf); err == nil {
		t.Fatal("mismatched options accepted")
	}
}

func TestSnapshotGarbageRejected(t *testing.T) {
	g := graph.MustBuild(2, nil)
	e, _ := core.NewEngine[float64, float64](g, algorithms.NewPageRank(), core.Options{})
	if err := e.ReadSnapshot(bytes.NewBufferString("not a gob stream")); err == nil {
		t.Fatal("garbage accepted")
	}
}
