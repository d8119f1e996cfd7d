package core_test

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stream"
)

// TestSoakLongStreamPageRank drives one engine through a long mutation
// stream (the paper's §5.1 methodology: load half, stream the rest with
// deletions mixed in) and cross-checks against scratch every few
// batches. This exercises repeated refinement over the same history —
// overwrites of overwrites, tail restores of restored tails — which
// single-batch tests cannot reach.
func TestSoakLongStreamPageRank(t *testing.T) {
	edges := gen.RMAT(91, 300, 4000, gen.WeightUniform)
	s, err := stream.FromEdges(300, edges, stream.Config{
		BatchSize: 80, DeleteFraction: 0.3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Batches) < 15 {
		t.Fatalf("stream too short: %d batches", len(s.Batches))
	}
	opts := core.Options{MaxIterations: 10, Horizon: 6}
	eng, err := core.NewEngine[float64, float64](s.Base, algorithms.NewPageRank(), opts)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	for bi, b := range s.Batches {
		eng.ApplyBatch(b)
		if bi%4 != 3 {
			continue
		}
		fresh, _ := core.NewEngine[float64, float64](eng.Graph(), algorithms.NewPageRank(),
			core.Options{Mode: core.ModeReset, MaxIterations: 10})
		fresh.Run()
		scalarsMatch(t, eng.Values(), fresh.Values(), 1e-7, "soak PR")
	}
}

// TestSoakLongStreamLabelProp is the vector-aggregate analogue, with
// tolerance-gated selective scheduling layered on (approximate regime):
// results must stay within a small factor of the tolerance.
func TestSoakLongStreamLabelProp(t *testing.T) {
	edges := gen.RMAT(92, 300, 3500, gen.WeightUniform)
	s, err := stream.FromEdges(300, edges, stream.Config{
		BatchSize: 60, DeleteFraction: 0.25, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	lp := algorithms.NewLabelProp(3, map[core.VertexID]int{2: 0, 9: 1, 77: 2})
	opts := core.Options{MaxIterations: 8}
	eng, err := core.NewEngine[[]float64, []float64](s.Base, lp, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	limit := len(s.Batches)
	if limit > 12 {
		limit = 12
	}
	for bi := 0; bi < limit; bi++ {
		eng.ApplyBatch(s.Batches[bi])
		fresh, _ := core.NewEngine[[]float64, []float64](eng.Graph(), lp,
			core.Options{Mode: core.ModeReset, MaxIterations: 8})
		fresh.Run()
		vectorsMatch(t, eng.Values(), fresh.Values(), 1e-7, "soak LP")
	}
}

// TestSoakSSSPChurn alternates heavy deletion and insertion batches on a
// chain-augmented graph where path lengths swing dramatically.
func TestSoakSSSPChurn(t *testing.T) {
	var edges []graph.Edge
	edges = append(edges, gen.Chain(60, gen.WeightSmallInt)...)
	edges = append(edges, gen.RMAT(93, 60, 200, gen.WeightSmallInt)...)
	g := graph.MustBuild(60, edges)
	opts := core.Options{MaxIterations: 300, Horizon: 40}
	eng, err := core.NewEngine[float64, float64](g, algorithms.NewSSSP(0), opts)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	r := gen.NewRNG(17)
	for round := 0; round < 10; round++ {
		var b graph.Batch
		if round%2 == 0 {
			all := eng.Graph().Edges(nil)
			for i := 0; i < 20 && len(all) > 0; i++ {
				e := all[r.Intn(len(all))]
				b.Del = append(b.Del, graph.Edge{From: e.From, To: e.To})
			}
		} else {
			for i := 0; i < 20; i++ {
				b.Add = append(b.Add, graph.Edge{
					From:   graph.VertexID(r.Intn(60)),
					To:     graph.VertexID(r.Intn(60)),
					Weight: float64(r.Intn(9) + 1),
				})
			}
		}
		eng.ApplyBatch(b)
		fresh, _ := core.NewEngine[float64, float64](eng.Graph(), algorithms.NewSSSP(0),
			core.Options{Mode: core.ModeReset, MaxIterations: 300})
		fresh.Run()
		scalarsMatch(t, eng.Values(), fresh.Values(), 0, "soak SSSP churn")
	}
}

// TestStatsAccumulate checks the cumulative statistics plumbing.
func TestStatsAccumulate(t *testing.T) {
	g := graph.MustBuild(50, gen.RMAT(94, 50, 300, gen.WeightUnit))
	eng, _ := core.NewEngine[float64, float64](g, algorithms.NewPageRank(), core.Options{MaxIterations: 5})
	st1 := eng.Run()
	st2, _ := eng.ApplyBatch(graph.Batch{Add: []graph.Edge{{From: 1, To: 2, Weight: 1}}})
	total := eng.TotalStats()
	if total.EdgeComputations != st1.EdgeComputations+st2.EdgeComputations {
		t.Fatalf("cumulative edges %d != %d + %d",
			total.EdgeComputations, st1.EdgeComputations, st2.EdgeComputations)
	}
	if total.Duration < st1.Duration {
		t.Fatal("cumulative duration went backwards")
	}
	var s core.Stats
	s.Add(st1)
	s.Add(st2)
	if s.EdgeComputations != total.EdgeComputations {
		t.Fatal("Stats.Add mismatch")
	}
}

// TestRefinementUnderConcurrency re-runs the PR oracle with GOMAXPROCS
// inflated so the engine's worker-spawning paths execute even on
// single-CPU machines.
func TestRefinementUnderConcurrency(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)

	edges := gen.RMAT(95, 500, 6000, gen.WeightUniform)
	g := graph.MustBuild(500, edges)
	opts := core.Options{MaxIterations: 10, Horizon: 6}
	eng, err := core.NewEngine[float64, float64](g, algorithms.NewPageRank(), opts)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	r := gen.NewRNG(33)
	for round := 0; round < 5; round++ {
		var b graph.Batch
		for i := 0; i < 50; i++ {
			b.Add = append(b.Add, graph.Edge{
				From:   graph.VertexID(r.Intn(500)),
				To:     graph.VertexID(r.Intn(500)),
				Weight: 1,
			})
		}
		all := eng.Graph().Edges(nil)
		for i := 0; i < 25; i++ {
			e := all[r.Intn(len(all))]
			b.Del = append(b.Del, graph.Edge{From: e.From, To: e.To})
		}
		eng.ApplyBatch(b)
		fresh, _ := core.NewEngine[float64, float64](eng.Graph(), algorithms.NewPageRank(),
			core.Options{Mode: core.ModeReset, MaxIterations: 10})
		fresh.Run()
		scalarsMatch(t, eng.Values(), fresh.Values(), 1e-8, "concurrent refinement")
	}
}

// TestSameStreamTwiceIsBitIdentical runs one stream through engines at
// GOMAXPROCS 1, 2, 4 and 8: every published value must come out bit for
// bit the same. PageRank sums floats and Belief Propagation multiplies
// them, so this holds only while each target takes its contributions in
// an order fixed by the stream (ascending sources), never by how workers
// claim chunks. 4 000 vertices, so the kernels' loops really split. SSSP
// and CC are pull programs: on this graph their refined levels reach
// touched sets of more than 512 vertices, so pullEdges over a member set
// runs split across workers, each writing touched in its own blocks.
func TestSameStreamTwiceIsBitIdentical(t *testing.T) {
	const n = 4000
	s, err := stream.FromEdges(n, gen.RMAT(96, n, 40000, gen.WeightUniform), stream.Config{BatchSize: 200, DeleteFraction: 0.3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []core.Mode{core.ModeGraphBolt, core.ModeGraphBoltRP, core.ModeReset, core.ModeNaive} {
		sameAcrossProcs[float64, float64](t, s, "PageRank", algorithms.NewPageRank(), mode, scalar)
		sameAcrossProcs[float64, float64](t, s, "SSSP", algorithms.NewSSSP(0), mode, scalar)
	}
	sameAcrossProcs[[]float64, []float64](t, s, "BeliefProp", algorithms.NewBeliefProp(3), core.ModeGraphBolt, vector)
	sameAcrossProcs[float64, float64](t, s, "CC", algorithms.NewConnectedComponents(), core.ModeGraphBolt, scalar)
}

// sameAcrossProcs streams s at each GOMAXPROCS setting and requires the
// same bits as at one processor.
func sameAcrossProcs[V, A any](t *testing.T, s *stream.Stream, name string, p core.Program[V, A], mode core.Mode, flat func(V) []float64) {
	t.Helper()
	var want [][]V
	for _, procs := range []int{1, 2, 4, 8} {
		prev := runtime.GOMAXPROCS(procs)
		got, _ := streamValues(t, s, 6, p, core.Options{Mode: mode, MaxIterations: 10, Horizon: 6}, nil)
		runtime.GOMAXPROCS(prev)
		if want == nil {
			want = got
			continue
		}
		requireSameBits(t, fmt.Sprintf("%s %v, GOMAXPROCS %d vs 1", name, mode, procs), want, got, flat)
	}
}

// streamValues runs s's base and its first batches through a fresh engine
// built with opts and returns the values published after Run and after each batch (step
// 0 is the initial run), with each call's Stats, Duration zeroed. setup,
// when non-nil, adjusts the engine before Run.
func streamValues[V, A any](t *testing.T, s *stream.Stream, batches int, p core.Program[V, A], opts core.Options, setup func(*core.Engine[V, A])) ([][]V, []core.Stats) {
	t.Helper()
	eng, err := core.NewEngine[V, A](s.Base, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(eng)
	}
	st := eng.Run()
	vals, stats := [][]V{eng.Values()}, []core.Stats{st}
	for _, b := range s.Batches[:batches] {
		if st, err = eng.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		vals, stats = append(vals, eng.Values()), append(stats, st)
	}
	for i := range stats {
		stats[i].Duration = 0
	}
	return vals, stats
}

func scalar(x float64) []float64   { return []float64{x} }
func vector(x []float64) []float64 { return x }

// requireSameBits fails unless two runs published the same values, bit
// for bit, at every step.
func requireSameBits[V any](t *testing.T, label string, want, got [][]V, flat func(V) []float64) {
	t.Helper()
	for step := range want {
		if len(got[step]) != len(want[step]) {
			t.Fatalf("%s: step %d: %d values vs %d", label, step, len(got[step]), len(want[step]))
		}
		for v := range want[step] {
			a, b := flat(want[step][v]), flat(got[step][v])
			if !slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
				t.Fatalf("%s: step %d vertex %d: %v vs %v", label, step, v, a, b)
			}
		}
	}
}

// TestSoakVertexGrowth streams batches that keep naming new vertices —
// a few per batch, then one far beyond the range — so the engine-owned
// refinement scratch has to grow several times mid-stream, and
// cross-checks against a fresh run every few batches. PageRank takes the
// push path, SSSP the pull path.
func TestSoakVertexGrowth(t *testing.T) {
	cases := []struct {
		name string
		prog core.Program[float64, float64]
		eps  float64
	}{
		{"pagerank", algorithms.NewPageRank(), 1e-7},
		{"sssp", algorithms.NewSSSP(0), 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const n0 = 150
			g := graph.MustBuild(n0, gen.RMAT(97, n0, 1200, gen.WeightSmallInt))
			opts := core.Options{MaxIterations: 12, Horizon: 8}
			eng, err := core.NewEngine[float64, float64](g, c.prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			eng.Run()
			r := gen.NewRNG(41)
			for bi := 0; bi < 40; bi++ {
				n := eng.Graph().NumVertices()
				grow := 12
				if bi == 25 {
					grow = 1000
				}
				var b graph.Batch
				for i := 0; i < 30; i++ {
					b.Add = append(b.Add, graph.Edge{
						From:   graph.VertexID(r.Intn(n + grow)),
						To:     graph.VertexID(r.Intn(n + grow)),
						Weight: float64(r.Intn(9) + 1),
					})
				}
				all := eng.Graph().Edges(nil)
				for i := 0; i < 10; i++ {
					e := all[r.Intn(len(all))]
					b.Del = append(b.Del, graph.Edge{From: e.From, To: e.To})
				}
				if _, err := eng.ApplyBatch(b); err != nil {
					t.Fatal(err)
				}
				if bi%4 != 3 {
					continue
				}
				fresh, _ := core.NewEngine[float64, float64](eng.Graph(), c.prog,
					core.Options{Mode: core.ModeReset, MaxIterations: 12})
				fresh.Run()
				scalarsMatch(t, eng.Values(), fresh.Values(), c.eps, "growth soak "+c.name)
			}
			if n := eng.Graph().NumVertices(); n < 4*n0 {
				t.Fatalf("stream grew the vertex set only to %d", n)
			}
		})
	}
}
