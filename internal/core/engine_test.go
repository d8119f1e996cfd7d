package core_test

import (
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/core/difftest"
	"repro/internal/gen"
	"repro/internal/graph"
)

// scalarsMatch and vectorsMatch compare with one epsilon used both
// relatively and absolutely (difftest.Approx), which absorbs float
// non-associativity between parallel runs; eps 0 is exact.
func scalarsMatch(t *testing.T, got, want []float64, eps float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for v := range got {
		if !difftest.Approx(got[v], want[v], eps, eps) {
			t.Fatalf("%s: vertex %d: got %v want %v", label, v, got[v], want[v])
		}
	}
}

func vectorsMatch(t *testing.T, got, want [][]float64, eps float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for v := range got {
		for f := range got[v] {
			if !difftest.Approx(got[v][f], want[v][f], eps, eps) {
				t.Fatalf("%s: vertex %d[%d]: got %v want %v", label, v, f, got[v][f], want[v][f])
			}
		}
	}
}

func TestPageRankTinyGraphAgainstHandRolled(t *testing.T) {
	// 0→1, 1→2, 2→0: symmetric cycle; ranks converge to 1.
	g := graph.MustBuild(3, []graph.Edge{{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 1}, {From: 2, To: 0, Weight: 1}})
	e, err := core.NewEngine[float64, float64](g, algorithms.NewPageRank(), core.Options{MaxIterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	for v, r := range e.Values() {
		if !difftest.Approx(r, 1.0, 1e-9, 1e-9) {
			t.Fatalf("vertex %d rank %v, want 1", v, r)
		}
	}
}

func TestPageRankDanglingVertex(t *testing.T) {
	// 0→1; 1 is a sink. Exact two-iteration BSP values.
	g := graph.MustBuild(2, []graph.Edge{{From: 0, To: 1, Weight: 1}})
	e, _ := core.NewEngine[float64, float64](g, algorithms.NewPageRank(), core.Options{MaxIterations: 2})
	e.Run()
	// c1(0) = 0.15; c1(1) = 0.15 + 0.85*1 = 1.0
	// c2(1) = 0.15 + 0.85*c1(0) = 0.2775
	if !difftest.Approx(e.Values()[0], 0.15, 1e-12, 1e-12) {
		t.Fatalf("c2(0) = %v", e.Values()[0])
	}
	if !difftest.Approx(e.Values()[1], 0.15+0.85*0.15, 1e-12, 1e-12) {
		t.Fatalf("c2(1) = %v", e.Values()[1])
	}
}

func TestLigraAndDeltaModesAgree(t *testing.T) {
	edges := gen.RMAT(11, 128, 1024, gen.WeightUniform)
	g := graph.MustBuild(128, edges)
	runWith := func(mode core.Mode) []float64 {
		e, err := core.NewEngine[float64, float64](g, algorithms.NewPageRank(), core.Options{Mode: mode, MaxIterations: 8})
		if err != nil {
			t.Fatal(err)
		}
		e.Run()
		return append([]float64(nil), e.Values()...)
	}
	ligra := runWith(core.ModeLigra)
	reset := runWith(core.ModeReset)
	gb := runWith(core.ModeGraphBolt)
	rp := runWith(core.ModeGraphBoltRP)
	scalarsMatch(t, reset, ligra, 1e-9, "GB-Reset vs Ligra")
	scalarsMatch(t, gb, ligra, 1e-9, "GraphBolt vs Ligra")
	scalarsMatch(t, rp, ligra, 1e-9, "GraphBolt-RP vs Ligra")
}

// makeBatch builds a deterministic mixed batch over the graph.
func makeBatch(g *graph.Graph, seed uint64, nAdd, nDel int) graph.Batch {
	r := gen.NewRNG(seed)
	n := g.NumVertices()
	var b graph.Batch
	for i := 0; i < nAdd; i++ {
		b.Add = append(b.Add, graph.Edge{
			From:   graph.VertexID(r.Intn(n)),
			To:     graph.VertexID(r.Intn(n)),
			Weight: float64(r.Intn(8) + 1),
		})
	}
	all := g.Edges(nil)
	for i := 0; i < nDel && len(all) > 0; i++ {
		e := all[r.Intn(len(all))]
		b.Del = append(b.Del, graph.Edge{From: e.From, To: e.To})
	}
	return b
}

// refinementOracle runs GraphBolt through a sequence of batches and
// checks the values after each batch against a fresh run on the mutated
// snapshot — the Theorem 4.1 guarantee.
func refinementOracle[V any](
	t *testing.T,
	label string,
	build func(g *graph.Graph, mode core.Mode, opts core.Options) interface {
		Run() core.Stats
		ApplyBatch(graph.Batch) (core.Stats, error)
		Values() []V
		Graph() *graph.Graph
	},
	match func(t *testing.T, got, want []V, label string),
	g *graph.Graph,
	batches []graph.Batch,
	opts core.Options,
) {
	t.Helper()
	inc := build(g, core.ModeGraphBolt, opts)
	inc.Run()
	for bi, b := range batches {
		inc.ApplyBatch(b)
		fresh := build(inc.Graph(), core.ModeReset, opts)
		fresh.Run()
		match(t, inc.Values(), fresh.Values(), label)
		_ = bi
	}
}

type scalarEngine interface {
	Run() core.Stats
	ApplyBatch(graph.Batch) (core.Stats, error)
	Values() []float64
	Graph() *graph.Graph
}

func buildScalar[A any](p core.Program[float64, A]) func(*graph.Graph, core.Mode, core.Options) scalarEngine {
	return func(g *graph.Graph, mode core.Mode, opts core.Options) scalarEngine {
		opts.Mode = mode
		e, err := core.NewEngine[float64, A](g, p, opts)
		if err != nil {
			panic(err)
		}
		return e
	}
}

func TestRefinementMatchesScratchPageRank(t *testing.T) {
	for _, horizon := range []int{0, 3, 7, 10} {
		edges := gen.RMAT(21, 200, 1600, gen.WeightUnit)
		g := graph.MustBuild(200, edges)
		opts := core.Options{MaxIterations: 10, Horizon: horizon}
		build := buildScalar[float64](algorithms.NewPageRank())

		inc := build(g, core.ModeGraphBolt, opts)
		inc.Run()
		for bi := 0; bi < 4; bi++ {
			batch := makeBatch(inc.Graph(), uint64(100+bi), 20, 10)
			inc.ApplyBatch(batch)
			fresh := build(inc.Graph(), core.ModeReset, opts)
			fresh.Run()
			scalarsMatch(t, inc.Values(), fresh.Values(), 1e-8, "PR refinement (horizon=)")
		}
	}
}

func TestRefinementMatchesScratchCoEM(t *testing.T) {
	edges := gen.RMAT(22, 150, 1200, gen.WeightUniform)
	g := graph.MustBuild(150, edges)
	pos := []core.VertexID{1, 5, 9}
	neg := []core.VertexID{2, 7}
	opts := core.Options{MaxIterations: 10, Horizon: 5}
	build := buildScalar[algorithms.CoEMAgg](algorithms.NewCoEM(pos, neg))

	inc := build(g, core.ModeGraphBolt, opts)
	inc.Run()
	for bi := 0; bi < 3; bi++ {
		batch := makeBatch(inc.Graph(), uint64(200+bi), 15, 15)
		inc.ApplyBatch(batch)
		fresh := build(inc.Graph(), core.ModeReset, opts)
		fresh.Run()
		scalarsMatch(t, inc.Values(), fresh.Values(), 1e-8, "CoEM refinement")
	}
}

func TestRefinementMatchesScratchLabelProp(t *testing.T) {
	edges := gen.RMAT(23, 150, 1100, gen.WeightUniform)
	g := graph.MustBuild(150, edges)
	seeds := map[core.VertexID]int{0: 0, 3: 1, 11: 2, 40: 1}
	lp := algorithms.NewLabelProp(3, seeds)
	opts := core.Options{MaxIterations: 8, Horizon: 4}

	buildLP := func(g *graph.Graph, mode core.Mode) *core.Engine[[]float64, []float64] {
		o := opts
		o.Mode = mode
		e, err := core.NewEngine[[]float64, []float64](g, lp, o)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	inc := buildLP(g, core.ModeGraphBolt)
	inc.Run()
	for bi := 0; bi < 3; bi++ {
		batch := makeBatch(inc.Graph(), uint64(300+bi), 12, 12)
		inc.ApplyBatch(batch)
		fresh := buildLP(inc.Graph(), core.ModeReset)
		fresh.Run()
		vectorsMatch(t, inc.Values(), fresh.Values(), 1e-8, "LP refinement")
	}
}

func TestRefinementMatchesScratchBeliefProp(t *testing.T) {
	edges := gen.RMAT(24, 100, 500, gen.WeightUnit)
	g := graph.MustBuild(100, edges)
	bp := algorithms.NewBeliefProp(3)
	opts := core.Options{MaxIterations: 6, Horizon: 3}

	buildBP := func(g *graph.Graph, mode core.Mode) *core.Engine[[]float64, []float64] {
		o := opts
		o.Mode = mode
		e, err := core.NewEngine[[]float64, []float64](g, bp, o)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	inc := buildBP(g, core.ModeGraphBolt)
	inc.Run()
	for bi := 0; bi < 3; bi++ {
		batch := makeBatch(inc.Graph(), uint64(400+bi), 10, 8)
		inc.ApplyBatch(batch)
		fresh := buildBP(inc.Graph(), core.ModeReset)
		fresh.Run()
		// BP retracts by division; allow more float drift.
		vectorsMatch(t, inc.Values(), fresh.Values(), 1e-6, "BP refinement")
	}
}

func TestRefinementMatchesScratchCollabFilter(t *testing.T) {
	edges := gen.Bipartite(25, 60, 30, 400, gen.WeightSmallInt)
	g := graph.MustBuild(90, edges)
	cf := algorithms.NewCollabFilter(4)
	opts := core.Options{MaxIterations: 6, Horizon: 3}

	buildCF := func(g *graph.Graph, mode core.Mode) *core.Engine[[]float64, algorithms.CFAgg] {
		o := opts
		o.Mode = mode
		e, err := core.NewEngine[[]float64, algorithms.CFAgg](g, cf, o)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	inc := buildCF(g, core.ModeGraphBolt)
	inc.Run()
	for bi := 0; bi < 3; bi++ {
		batch := makeBatch(inc.Graph(), uint64(500+bi), 10, 8)
		inc.ApplyBatch(batch)
		fresh := buildCF(inc.Graph(), core.ModeReset)
		fresh.Run()
		vectorsMatch(t, inc.Values(), fresh.Values(), 1e-5, "CF refinement")
	}
}

func TestRefinementMatchesScratchSSSP(t *testing.T) {
	edges := gen.RMAT(26, 200, 1500, gen.WeightSmallInt)
	g := graph.MustBuild(200, edges)
	opts := core.Options{MaxIterations: 250, Horizon: 250}
	build := buildScalar[float64](algorithms.NewSSSP(0))

	inc := build(g, core.ModeGraphBolt, opts)
	inc.Run()
	for bi := 0; bi < 4; bi++ {
		batch := makeBatch(inc.Graph(), uint64(600+bi), 15, 15)
		inc.ApplyBatch(batch)
		fresh := build(inc.Graph(), core.ModeReset, opts)
		fresh.Run()
		scalarsMatch(t, inc.Values(), fresh.Values(), 0, "SSSP refinement")
	}
}

func TestRefinementMatchesScratchBFSAndCC(t *testing.T) {
	edges := gen.RMAT(27, 150, 900, gen.WeightUnit)
	// Symmetrize for CC.
	var sym []graph.Edge
	for _, e := range edges {
		sym = append(sym, e, graph.Edge{From: e.To, To: e.From, Weight: e.Weight})
	}
	g := graph.MustBuild(150, sym)
	opts := core.Options{MaxIterations: 200, Horizon: 200}

	for name, p := range map[string]core.Program[float64, float64]{
		"BFS": algorithms.NewBFS(3),
		"CC":  algorithms.NewConnectedComponents(),
	} {
		build := buildScalar[float64](p)
		inc := build(g, core.ModeGraphBolt, opts)
		inc.Run()
		for bi := 0; bi < 3; bi++ {
			batch := makeBatch(inc.Graph(), uint64(700+bi), 10, 10)
			// Symmetrize mutations so CC stays well-defined.
			var symBatch graph.Batch
			for _, e := range batch.Add {
				symBatch.Add = append(symBatch.Add, e, graph.Edge{From: e.To, To: e.From, Weight: e.Weight})
			}
			for _, e := range batch.Del {
				symBatch.Del = append(symBatch.Del, e, graph.Edge{From: e.To, To: e.From})
			}
			inc.ApplyBatch(symBatch)
			fresh := build(inc.Graph(), core.ModeReset, opts)
			fresh.Run()
			scalarsMatch(t, inc.Values(), fresh.Values(), 0, name+" refinement")
		}
	}
}

func TestRefinementWithVertexGrowth(t *testing.T) {
	g := graph.MustBuild(10, []graph.Edge{{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 1}})
	build := buildScalar[float64](algorithms.NewPageRank())
	opts := core.Options{MaxIterations: 10}
	inc := build(g, core.ModeGraphBolt, opts)
	inc.Run()
	inc.ApplyBatch(graph.Batch{Add: []graph.Edge{{From: 15, To: 1, Weight: 1}, {From: 2, To: 14, Weight: 1}}})
	if inc.Graph().NumVertices() != 16 {
		t.Fatalf("vertices = %d, want 16", inc.Graph().NumVertices())
	}
	fresh := build(inc.Graph(), core.ModeReset, opts)
	fresh.Run()
	scalarsMatch(t, inc.Values(), fresh.Values(), 1e-9, "vertex growth refinement")
}

func TestRefinementEmptyBatch(t *testing.T) {
	g := graph.MustBuild(20, gen.RMAT(31, 20, 60, gen.WeightUnit))
	build := buildScalar[float64](algorithms.NewPageRank())
	opts := core.Options{MaxIterations: 6}
	inc := build(g, core.ModeGraphBolt, opts)
	inc.Run()
	before := append([]float64(nil), inc.Values()...)
	inc.ApplyBatch(graph.Batch{})
	scalarsMatch(t, inc.Values(), before, 0, "empty batch must not perturb values")
}

func TestApplyBatchBeforeRun(t *testing.T) {
	g := graph.MustBuild(5, []graph.Edge{{From: 0, To: 1, Weight: 1}})
	build := buildScalar[float64](algorithms.NewPageRank())
	opts := core.Options{MaxIterations: 5}
	inc := build(g, core.ModeGraphBolt, opts)
	inc.ApplyBatch(graph.Batch{Add: []graph.Edge{{From: 1, To: 2, Weight: 1}}})
	fresh := build(inc.Graph(), core.ModeReset, opts)
	fresh.Run()
	scalarsMatch(t, inc.Values(), fresh.Values(), 1e-12, "ApplyBatch before Run")
}

func TestNaiveModeProducesDifferentValues(t *testing.T) {
	// The premise of Table 1: naive reuse converges to S*(G^T, R_G),
	// which differs from S*(G^T, I) for Label Propagation.
	edges := gen.RMAT(28, 120, 900, gen.WeightUniform)
	g := graph.MustBuild(120, edges)
	seeds := map[core.VertexID]int{0: 0, 7: 1}
	lp := algorithms.NewLabelProp(2, seeds)
	opts := core.Options{MaxIterations: 10, Mode: core.ModeNaive}
	naive, err := core.NewEngine[[]float64, []float64](g, lp, opts)
	if err != nil {
		t.Fatal(err)
	}
	naive.Run()
	batch := makeBatch(g, 900, 60, 40)
	naive.ApplyBatch(batch)

	fresh, _ := core.NewEngine[[]float64, []float64](naive.Graph(), lp, core.Options{MaxIterations: 10, Mode: core.ModeReset})
	fresh.Run()

	diff := 0
	for v := range naive.Values() {
		for f := range naive.Values()[v] {
			if !difftest.Approx(naive.Values()[v][f], fresh.Values()[v][f], 0, 1e-6) {
				diff++
				break
			}
		}
	}
	if diff == 0 {
		t.Fatal("naive incremental reuse unexpectedly produced exact BSP results")
	}
}

func TestGraphBoltDoesLessEdgeWorkThanReset(t *testing.T) {
	edges := gen.RMAT(29, 1024, 16384, gen.WeightUnit)
	g := graph.MustBuild(1024, edges)
	opts := core.Options{MaxIterations: 10}
	build := buildScalar[float64](algorithms.NewPageRank())

	gb := build(g, core.ModeGraphBolt, opts)
	gb.Run()
	batch := makeBatch(g, 777, 10, 5)
	gbStats, _ := gb.ApplyBatch(batch)

	reset := build(g, core.ModeReset, opts)
	reset.Run()
	resetStats, _ := reset.ApplyBatch(batch)

	if gbStats.EdgeComputations >= resetStats.EdgeComputations {
		t.Fatalf("GraphBolt edge work %d not below GB-Reset %d",
			gbStats.EdgeComputations, resetStats.EdgeComputations)
	}
	// And the results still agree.
	scalarsMatch(t, gb.Values(), reset.Values(), 1e-8, "work comparison values")
}

func TestHistoryBytesGrowWithTracking(t *testing.T) {
	g := graph.MustBuild(64, gen.RMAT(30, 64, 512, gen.WeightUnit))
	build := buildScalar[float64](algorithms.NewPageRank())
	gb := build(g, core.ModeGraphBolt, core.Options{MaxIterations: 5})
	gb.Run()
	if gb.(*core.Engine[float64, float64]).HistoryBytes() == 0 {
		t.Fatal("tracking engine reports zero history bytes")
	}
	rs := build(g, core.ModeReset, core.Options{MaxIterations: 5})
	rs.Run()
	if rs.(*core.Engine[float64, float64]).HistoryBytes() != 0 {
		t.Fatal("reset engine reports history bytes")
	}
}

func TestDisableVerticalPruningSameResults(t *testing.T) {
	edges := gen.RMAT(32, 100, 800, gen.WeightUnit)
	g := graph.MustBuild(100, edges)
	build := buildScalar[float64](algorithms.NewPageRank())

	a := build(g, core.ModeGraphBolt, core.Options{MaxIterations: 8, Horizon: 4})
	b := build(g, core.ModeGraphBolt, core.Options{MaxIterations: 8, Horizon: 4, DisableVerticalPruning: true})
	a.Run()
	b.Run()
	batch := makeBatch(g, 55, 20, 10)
	a.ApplyBatch(batch)
	b.ApplyBatch(batch)
	scalarsMatch(t, a.Values(), b.Values(), 1e-9, "vertical pruning on/off")

	ab := a.(*core.Engine[float64, float64]).HistoryBytes()
	bb := b.(*core.Engine[float64, float64]).HistoryBytes()
	if bb < ab {
		t.Fatalf("disabled vertical pruning used less memory (%d < %d)", bb, ab)
	}
}

func TestModeStrings(t *testing.T) {
	want := map[core.Mode]string{
		core.ModeGraphBolt:   "GraphBolt",
		core.ModeGraphBoltRP: "GraphBolt-RP",
		core.ModeReset:       "GB-Reset",
		core.ModeLigra:       "Ligra",
		core.ModeNaive:       "Naive",
	}
	for m, s := range want {
		if m.String() != s {
			t.Fatalf("Mode(%d).String() = %q, want %q", m, m.String(), s)
		}
	}
}
