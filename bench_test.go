// Benchmarks regenerating the paper's evaluation (§5): one benchmark per
// table and figure, each delegating to the shared driver in
// internal/exps, plus micro-benchmarks of the operations the evaluation
// is built from. Run the full suite with
//
//	go test -bench=. -benchmem
//
// and the publication-shaped reports with cmd/graphbolt-bench.
package graphbolt_test

import (
	"io"
	"testing"

	graphbolt "repro"
	"repro/internal/exps"
)

// benchScale keeps each driver invocation in benchmark-friendly
// territory; cmd/graphbolt-bench runs the full-size reports.
const benchScale = 0.1

func benchExperiment(b *testing.B, name string) {
	e, ok := exps.ByName(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	cfg := exps.Config{Scale: benchScale, Iterations: 10, Seed: 42, Out: io.Discard}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1NaiveError measures the Table 1 driver: error growth of
// naive value reuse across 10 LP mutation batches.
func BenchmarkTable1NaiveError(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFigure2WalkThrough measures the 5-vertex correctness
// demonstration.
func BenchmarkFigure2WalkThrough(b *testing.B) { benchExperiment(b, "figure2") }

// BenchmarkFigure4Stabilization measures the per-iteration change-count
// trace that motivates pruning.
func BenchmarkFigure4Stabilization(b *testing.B) { benchExperiment(b, "figure4") }

// BenchmarkTable5Systems measures the full Ligra / GB-Reset / GraphBolt
// sweep across algorithms, graphs and batch sizes.
func BenchmarkTable5Systems(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkFigure6EdgeComputations measures the work-ratio sweep.
func BenchmarkFigure6EdgeComputations(b *testing.B) { benchExperiment(b, "figure6") }

// BenchmarkTable6Parallelism measures the YH-scale GOMAXPROCS contrast.
func BenchmarkTable6Parallelism(b *testing.B) { benchExperiment(b, "table6") }

// BenchmarkTable7YahooWork measures GraphBolt's absolute edge
// computations on the largest graph.
func BenchmarkTable7YahooWork(b *testing.B) { benchExperiment(b, "table7") }

// BenchmarkFigure7BatchSweep measures the 1-to-1M batch-size sweep.
func BenchmarkFigure7BatchSweep(b *testing.B) { benchExperiment(b, "figure7") }

// BenchmarkTable8HiLoWorkloads measures degree-targeted mutation
// workloads.
func BenchmarkTable8HiLoWorkloads(b *testing.B) { benchExperiment(b, "table8") }

// BenchmarkFigure8DifferentialDataflow measures PageRank against the
// mini differential-dataflow runtime.
func BenchmarkFigure8DifferentialDataflow(b *testing.B) { benchExperiment(b, "figure8") }

// BenchmarkFigure8bSingleEdgeVariance measures 100 single-edge mutations
// on GraphBolt and DD.
func BenchmarkFigure8bSingleEdgeVariance(b *testing.B) { benchExperiment(b, "figure8b") }

// BenchmarkFigure9SSSP measures KickStarter vs GraphBolt vs DD on
// shortest paths.
func BenchmarkFigure9SSSP(b *testing.B) { benchExperiment(b, "figure9") }

// BenchmarkTable9Memory measures the dependency-store footprint
// accounting.
func BenchmarkTable9Memory(b *testing.B) { benchExperiment(b, "table9") }

// --- Micro-benchmarks of the primitives the evaluation exercises ---

func benchGraph(b *testing.B) (*graphbolt.Graph, graphbolt.Batch) {
	b.Helper()
	s, err := graphbolt.NewRMATStream(42, 8192, 131072, graphbolt.StreamConfig{BatchSize: 1000, NumBatches: 1})
	if err != nil {
		b.Fatal(err)
	}
	return s.Base, s.Batches[0]
}

// BenchmarkInitialPageRank measures the tracked initial computation.
// Run it with -cpu 1,2 to see what the second core buys: the vertex
// loops record the dependency store's entries per 512-vertex block, so
// workers share no counter.
func BenchmarkInitialPageRank(b *testing.B) {
	g, _ := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, _ := graphbolt.NewEngine[float64, float64](g, graphbolt.NewPageRank(), graphbolt.Options{MaxIterations: 10})
		eng.Run()
	}
}

// BenchmarkApplyBatchPageRank measures one refined mutation batch per
// mode — the headline operation of the system. Iteration i applies batch
// i mod 32 of one pre-built stream, so every iteration mutates the graph
// the previous batches produced, as a stream does; each time the stream
// wraps, a fresh engine is built over the base graph off the clock.
// Each mode runs on two streams over 8 192 vertices: 1 000-edge additions
// to half of 131 072 RMAT edges, and, under batch25, the pr-refine bench
// workload's shape — 25-edge batches, a quarter of them deletions, to half
// of 90 000 edges — where refinement's per-batch bookkeeping weighs most
// against its edge work. edges/op is the edge computations per batch.
func BenchmarkApplyBatchPageRank(b *testing.B) {
	modes := []graphbolt.Mode{graphbolt.ModeGraphBolt, graphbolt.ModeGraphBoltRP, graphbolt.ModeReset, graphbolt.ModeLigra}
	s, err := graphbolt.NewRMATStream(42, 8192, 131072, graphbolt.StreamConfig{BatchSize: 1000, NumBatches: 32})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range modes {
		b.Run(mode.String(), func(b *testing.B) { benchApplyBatch(b, s, graphbolt.NewPageRank(), mode) })
	}
	small, err := graphbolt.NewRMATStream(101, 8192, 90_000, graphbolt.StreamConfig{BatchSize: 25, DeleteFraction: 0.25, NumBatches: 32})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("batch25", func(b *testing.B) {
		for _, mode := range modes {
			b.Run(mode.String(), func(b *testing.B) { benchApplyBatch(b, small, graphbolt.NewPageRank(), mode) })
		}
	})
}

// BenchmarkApplyBatchCC measures one refined connected-components batch
// in the replicated bench workload's shape: 20-edge batches, a quarter
// of them deletions, to half of 250 000 RMAT edges over 16 384 vertices.
// The runs converge before MaxIterations and each batch's refinement
// reaches a few thousand edges, so the per-batch terms that do not scale
// with the edges weigh most here.
func BenchmarkApplyBatchCC(b *testing.B) {
	s, err := graphbolt.NewRMATStream(103, 16384, 250_000, graphbolt.StreamConfig{BatchSize: 20, DeleteFraction: 0.25, NumBatches: 32})
	if err != nil {
		b.Fatal(err)
	}
	b.Run(graphbolt.ModeGraphBolt.String(), func(b *testing.B) {
		benchApplyBatch(b, s, graphbolt.NewConnectedComponents(), graphbolt.ModeGraphBolt)
	})
}

func benchApplyBatch(b *testing.B, s *graphbolt.Stream, p graphbolt.Program[float64, float64], mode graphbolt.Mode) {
	var eng *graphbolt.Engine[float64, float64]
	var edges int64
	for i := 0; i < b.N; i++ {
		k := i % len(s.Batches)
		if k == 0 {
			b.StopTimer()
			var err error
			eng, err = graphbolt.NewEngine[float64, float64](s.Base, p, graphbolt.Options{
				Mode: mode, MaxIterations: 10,
			})
			if err != nil {
				b.Fatal(err)
			}
			eng.Run()
			b.StartTimer()
		}
		st, err := eng.ApplyBatch(s.Batches[k])
		if err != nil {
			b.Fatal(err)
		}
		edges += st.EdgeComputations
	}
	b.ReportMetric(float64(edges)/float64(b.N), "edges/op")
}

// BenchmarkGraphApply measures graph.Apply, the copy-on-write structural
// mutation that replaces §4.1's two-pass CSR/CSC rewrite, in isolation.
func BenchmarkGraphApply(b *testing.B) {
	g, batch := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Apply(batch)
	}
}

// BenchmarkTriangleApply measures the locally incremental triangle
// counter against a batch.
func BenchmarkTriangleApply(b *testing.B) {
	g, batch := benchGraph(b)
	tc := graphbolt.NewTriangleCounter(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.Apply(batch)
	}
}

// BenchmarkKickStarterApply measures the dependence-tree SSSP engine.
func BenchmarkKickStarterApply(b *testing.B) {
	g, batch := benchGraph(b)
	ks := graphbolt.NewKickStarterSSSP(g, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ks.ApplyBatch(batch)
	}
}

// BenchmarkAblation measures the design-choice ablations (pruning
// settings, delta vs retract+propagate).
func BenchmarkAblation(b *testing.B) { benchExperiment(b, "ablation") }

// BenchmarkTagFraction measures the §2.2 tag-propagation comparison.
func BenchmarkTagFraction(b *testing.B) { benchExperiment(b, "tagfrac") }
