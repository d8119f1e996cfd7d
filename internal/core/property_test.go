package core_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/core/difftest"
	"repro/internal/gen"
	"repro/internal/graph"
)

// randomGraph builds a graph with n ∈ [5, 60] vertices and a random edge
// multiset, possibly with self loops and parallel edges.
func randomGraph(r *gen.RNG) *graph.Graph {
	n := 5 + r.Intn(56)
	m := r.Intn(6 * n)
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{
			From:   graph.VertexID(r.Intn(n)),
			To:     graph.VertexID(r.Intn(n)),
			Weight: float64(r.Intn(6) + 1),
		}
	}
	return graph.MustBuild(n, edges)
}

func randomBatch(r *gen.RNG, g *graph.Graph) graph.Batch {
	var b graph.Batch
	n := g.NumVertices()
	for i := 0; i < r.Intn(12); i++ {
		b.Add = append(b.Add, graph.Edge{
			From:   graph.VertexID(r.Intn(n + 2)),
			To:     graph.VertexID(r.Intn(n + 2)),
			Weight: float64(r.Intn(6) + 1),
		})
	}
	all := g.Edges(nil)
	for i := 0; i < r.Intn(12) && len(all) > 0; i++ {
		e := all[r.Intn(len(all))]
		b.Del = append(b.Del, graph.Edge{From: e.From, To: e.To})
	}
	return b
}

// TestQuickPageRankRefinementInvariant is the Theorem 4.1 property under
// randomized graphs, batches, horizons, pruning settings and both
// GraphBolt variants: after any batch sequence, refined values must match
// a scratch run on the final snapshot.
func TestQuickPageRankRefinementInvariant(t *testing.T) {
	check := func(seed uint64) bool {
		r := gen.NewRNG(seed)
		g := randomGraph(r)
		maxIter := 3 + r.Intn(8)
		horizon := 1 + r.Intn(maxIter)
		mode := core.ModeGraphBolt
		if r.Intn(2) == 0 {
			mode = core.ModeGraphBoltRP
		}
		opts := core.Options{
			Mode:                   mode,
			MaxIterations:          maxIter,
			Horizon:                horizon,
			DisableVerticalPruning: r.Intn(4) == 0,
		}
		inc, err := core.NewEngine[float64, float64](g, algorithms.NewPageRank(), opts)
		if err != nil {
			t.Fatal(err)
		}
		inc.Run()
		nBatches := 1 + r.Intn(4)
		for b := 0; b < nBatches; b++ {
			inc.ApplyBatch(randomBatch(r, inc.Graph()))
		}
		fresh, _ := core.NewEngine[float64, float64](inc.Graph(), algorithms.NewPageRank(),
			core.Options{Mode: core.ModeReset, MaxIterations: maxIter})
		fresh.Run()
		for v := range inc.Values() {
			if !difftest.Approx(inc.Values()[v], fresh.Values()[v], 1e-7, 1e-7) {
				t.Logf("seed %d: vertex %d: %v vs %v (mode=%v maxIter=%d horizon=%d)",
					seed, v, inc.Values()[v], fresh.Values()[v], mode, maxIter, horizon)
				return false
			}
		}
		return true
	}
	f := func(seed uint64) bool { return check(seed) }
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLabelPropRefinementInvariant does the same for a vector-valued
// weighted aggregation with clamped seeds.
func TestQuickLabelPropRefinementInvariant(t *testing.T) {
	check := func(seed uint64) bool {
		r := gen.NewRNG(seed)
		g := randomGraph(r)
		n := g.NumVertices()
		seeds := map[core.VertexID]int{}
		for i := 0; i < 1+r.Intn(4); i++ {
			seeds[graph.VertexID(r.Intn(n))] = r.Intn(3)
		}
		lp := algorithms.NewLabelProp(3, seeds)
		maxIter := 3 + r.Intn(6)
		opts := core.Options{
			MaxIterations: maxIter,
			Horizon:       1 + r.Intn(maxIter),
		}
		inc, err := core.NewEngine[[]float64, []float64](g, lp, opts)
		if err != nil {
			t.Fatal(err)
		}
		inc.Run()
		for b := 0; b < 1+r.Intn(3); b++ {
			inc.ApplyBatch(randomBatch(r, inc.Graph()))
		}
		fresh, _ := core.NewEngine[[]float64, []float64](inc.Graph(), lp,
			core.Options{Mode: core.ModeReset, MaxIterations: maxIter})
		fresh.Run()
		for v := range inc.Values() {
			for f := range inc.Values()[v] {
				if !difftest.Approx(inc.Values()[v][f], fresh.Values()[v][f], 1e-7, 1e-7) {
					t.Logf("seed %d: vertex %d[%d]: %v vs %v", seed, v, f,
						inc.Values()[v][f], fresh.Values()[v][f])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSSSPRefinementInvariant covers the non-decomposable pull path
// (exact equality: min aggregation has no float noise). The oracle is
// ModeLigra: ModeReset's runDelta shares refinement's witness kernel,
// runLigra shares no kernel at all.
func TestQuickSSSPRefinementInvariant(t *testing.T) {
	check := func(seed uint64) bool {
		r := gen.NewRNG(seed)
		g := randomGraph(r)
		opts := core.Options{MaxIterations: 4 * g.NumVertices(), Horizon: 2 + r.Intn(12)}
		src := graph.VertexID(r.Intn(g.NumVertices()))
		inc, err := core.NewEngine[float64, float64](g, algorithms.NewSSSP(src), opts)
		if err != nil {
			t.Fatal(err)
		}
		inc.Run()
		for b := 0; b < 1+r.Intn(3); b++ {
			inc.ApplyBatch(randomBatch(r, inc.Graph()))
		}
		fresh, _ := core.NewEngine[float64, float64](inc.Graph(), algorithms.NewSSSP(src),
			core.Options{Mode: core.ModeLigra, MaxIterations: opts.MaxIterations})
		fresh.Run()
		for v := range inc.Values() {
			a, b := inc.Values()[v], fresh.Values()[v]
			if a != b && !(math.IsInf(a, 1) && math.IsInf(b, 1)) {
				t.Logf("seed %d: vertex %d: %v vs %v", seed, v, a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCoEMRefinementInvariant covers the pair-aggregate program
// whose normalizer changes structurally (⊎/⋃- touch both components).
func TestQuickCoEMRefinementInvariant(t *testing.T) {
	check := func(seed uint64) bool {
		r := gen.NewRNG(seed)
		g := randomGraph(r)
		n := g.NumVertices()
		coem := algorithms.NewCoEM(
			[]core.VertexID{graph.VertexID(r.Intn(n))},
			[]core.VertexID{graph.VertexID(r.Intn(n))},
		)
		maxIter := 3 + r.Intn(6)
		opts := core.Options{MaxIterations: maxIter, Horizon: 1 + r.Intn(maxIter)}
		inc, err := core.NewEngine[float64, algorithms.CoEMAgg](g, coem, opts)
		if err != nil {
			t.Fatal(err)
		}
		inc.Run()
		for b := 0; b < 1+r.Intn(3); b++ {
			inc.ApplyBatch(randomBatch(r, inc.Graph()))
		}
		fresh, _ := core.NewEngine[float64, algorithms.CoEMAgg](inc.Graph(), coem,
			core.Options{Mode: core.ModeReset, MaxIterations: maxIter})
		fresh.Run()
		for v := range inc.Values() {
			if !difftest.Approx(inc.Values()[v], fresh.Values()[v], 1e-7, 1e-7) {
				t.Logf("seed %d: vertex %d: %v vs %v", seed, v, inc.Values()[v], fresh.Values()[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickKatzRefinementInvariant covers a degree-insensitive plain sum.
func TestQuickKatzRefinementInvariant(t *testing.T) {
	check := func(seed uint64) bool {
		r := gen.NewRNG(seed)
		g := randomGraph(r)
		maxIter := 3 + r.Intn(6)
		opts := core.Options{MaxIterations: maxIter, Horizon: 1 + r.Intn(maxIter)}
		inc, err := core.NewEngine[float64, float64](g, algorithms.NewKatz(), opts)
		if err != nil {
			t.Fatal(err)
		}
		inc.Run()
		for b := 0; b < 1+r.Intn(3); b++ {
			inc.ApplyBatch(randomBatch(r, inc.Graph()))
		}
		fresh, _ := core.NewEngine[float64, float64](inc.Graph(), algorithms.NewKatz(),
			core.Options{Mode: core.ModeReset, MaxIterations: maxIter})
		fresh.Run()
		for v := range inc.Values() {
			if !difftest.Approx(inc.Values()[v], fresh.Values()[v], 1e-8, 1e-8) {
				t.Logf("seed %d: vertex %d: %v vs %v", seed, v, inc.Values()[v], fresh.Values()[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCollabFilterRefinementInvariant covers the complex
// matrix-pair aggregation (higher float drift tolerance: retraction of
// outer products).
func TestQuickCollabFilterRefinementInvariant(t *testing.T) {
	check := func(seed uint64) bool {
		r := gen.NewRNG(seed)
		g := randomGraph(r)
		cf := algorithms.NewCollabFilter(3)
		maxIter := 3 + r.Intn(4)
		opts := core.Options{MaxIterations: maxIter, Horizon: 1 + r.Intn(maxIter)}
		inc, err := core.NewEngine[[]float64, algorithms.CFAgg](g, cf, opts)
		if err != nil {
			t.Fatal(err)
		}
		inc.Run()
		for b := 0; b < 1+r.Intn(2); b++ {
			inc.ApplyBatch(randomBatch(r, inc.Graph()))
		}
		fresh, _ := core.NewEngine[[]float64, algorithms.CFAgg](inc.Graph(), cf,
			core.Options{Mode: core.ModeReset, MaxIterations: maxIter})
		fresh.Run()
		for v := range inc.Values() {
			for f := range inc.Values()[v] {
				if !difftest.Approx(inc.Values()[v][f], fresh.Values()[v][f], 1e-5, 1e-5) {
					t.Logf("seed %d: vertex %d[%d]: %v vs %v", seed, v, f,
						inc.Values()[v][f], fresh.Values()[v][f])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBeliefPropRefinementInvariant covers the product aggregation
// whose retraction is a division.
func TestQuickBeliefPropRefinementInvariant(t *testing.T) {
	check := func(seed uint64) bool {
		r := gen.NewRNG(seed)
		g := randomGraph(r)
		bp := algorithms.NewBeliefProp(2 + r.Intn(2))
		maxIter := 3 + r.Intn(4)
		opts := core.Options{MaxIterations: maxIter, Horizon: 1 + r.Intn(maxIter)}
		inc, err := core.NewEngine[[]float64, []float64](g, bp, opts)
		if err != nil {
			t.Fatal(err)
		}
		inc.Run()
		for b := 0; b < 1+r.Intn(2); b++ {
			inc.ApplyBatch(randomBatch(r, inc.Graph()))
		}
		fresh, _ := core.NewEngine[[]float64, []float64](inc.Graph(), bp,
			core.Options{Mode: core.ModeReset, MaxIterations: maxIter})
		fresh.Run()
		for v := range inc.Values() {
			for f := range inc.Values()[v] {
				if !difftest.Approx(inc.Values()[v][f], fresh.Values()[v][f], 1e-5, 1e-5) {
					t.Logf("seed %d: vertex %d[%d]: %v vs %v", seed, v, f,
						inc.Values()[v][f], fresh.Values()[v][f])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
