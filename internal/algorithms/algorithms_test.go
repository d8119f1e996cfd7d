package algorithms

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/core/difftest"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestPageRankContributionGuardsZeroDegree(t *testing.T) {
	p := NewPageRank()
	var agg float64
	p.Propagate(&agg, 1.0, 0, 1, 1, 0)
	if agg != 0 {
		t.Fatalf("zero-degree contribution = %v, want 0", agg)
	}
	propagateDelta[float64, float64](p, &agg, 1.0, 2.0, 1, 0, 4)
	if agg != 0.5 {
		t.Fatalf("delta with degree change = %v, want 0.5", agg)
	}
}

func TestPageRankDeltaMatchesRetractPropagate(t *testing.T) {
	p := NewPageRank()
	a1, a2 := 3.0, 3.0
	propagateDelta[float64, float64](p, &a1, 0.4, 0.9, 1, 5, 5)
	p.Retract(&a2, 0.4, 0, 1, 1, 5)
	p.Propagate(&a2, 0.9, 0, 1, 1, 5)
	if !difftest.Approx(a1, a2, 0, 1e-15) {
		t.Fatalf("delta %v != retract+propagate %v", a1, a2)
	}
}

func TestPageRankChangedTolerance(t *testing.T) {
	p := &PageRank{Damping: 0.85, Tolerance: 0.01}
	if p.Changed(1.0, 1.005) {
		t.Fatal("sub-tolerance change reported")
	}
	if !p.Changed(1.0, 1.02) {
		t.Fatal("super-tolerance change missed")
	}
	p.Tolerance = 0
	if !p.Changed(1.0, math.Nextafter(1.0, 2)) {
		t.Fatal("exact mode missed ULP change")
	}
}

func TestLabelPropSeedsClamped(t *testing.T) {
	p := NewLabelProp(3, map[core.VertexID]int{5: 2})
	v := p.InitValue(5)
	if v[2] != 1 || v[0] != 0 {
		t.Fatalf("seed init = %v", v)
	}
	// Compute must ignore aggregate for seeds.
	out := p.Compute(5, []float64{9, 9, 9})
	if out[2] != 1 || out[0] != 0 {
		t.Fatalf("seed compute = %v", out)
	}
	// Unlabeled normalizes.
	out = p.Compute(1, []float64{1, 1, 2})
	if !difftest.Approx(out[2], 0.5, 0, 1e-15) {
		t.Fatalf("normalize = %v", out)
	}
	// Zero mass: uniform.
	out = p.Compute(1, []float64{0, 0, 0})
	if !difftest.Approx(out[0], 1.0/3, 0, 1e-15) {
		t.Fatalf("zero-mass = %v", out)
	}
}

func TestLabelPropDeltaConsistency(t *testing.T) {
	p := NewLabelProp(2, nil)
	a1 := []float64{1, 2}
	a2 := []float64{1, 2}
	oldV, newV := []float64{0.2, 0.8}, []float64{0.6, 0.4}
	propagateDelta[[]float64, []float64](p, &a1, oldV, newV, 2.5, 0, 0)
	p.Retract(&a2, oldV, 0, 1, 2.5, 0)
	p.Propagate(&a2, newV, 0, 1, 2.5, 0)
	for f := range a1 {
		if !difftest.Approx(a1[f], a2[f], 0, 1e-12) {
			t.Fatalf("delta %v != r+p %v", a1, a2)
		}
	}
}

func TestCoEMSeedsAndNormalization(t *testing.T) {
	p := NewCoEM([]core.VertexID{1}, []core.VertexID{2})
	if p.InitValue(1) != 1 || p.InitValue(2) != 0 || p.InitValue(3) != 0.5 {
		t.Fatal("seed init wrong")
	}
	if p.Compute(1, CoEMAgg{Sum: 0, W: 4}) != 1 {
		t.Fatal("positive seed not clamped")
	}
	if got := p.Compute(3, CoEMAgg{Sum: 2, W: 4}); got != 0.5 {
		t.Fatalf("normalized = %v", got)
	}
	if got := p.Compute(3, CoEMAgg{}); got != 0.5 {
		t.Fatalf("empty aggregate = %v, want neutral 0.5", got)
	}
}

func TestCoEMStructuralRetract(t *testing.T) {
	p := NewCoEM(nil, nil)
	var a CoEMAgg
	p.Propagate(&a, 0.8, 0, 1, 2.0, 0)
	p.Propagate(&a, 0.4, 2, 1, 1.0, 0)
	p.Retract(&a, 0.8, 0, 1, 2.0, 0)
	if !difftest.Approx(a.Sum, 0.4, 0, 1e-15) || !difftest.Approx(a.W, 1.0, 0, 1e-15) {
		t.Fatalf("after retract: %+v", a)
	}
}

func TestBeliefPropContributionRoundTrip(t *testing.T) {
	p := NewBeliefProp(4)
	agg := p.IdentityAgg()
	src := []float64{0.1, 0.2, 0.3, 0.4}
	p.Propagate(&agg, src, 3, 7, 1, 0)
	p.Retract(&agg, src, 3, 7, 1, 0)
	for s, x := range agg {
		if !difftest.Approx(x, 1, 0, 1e-12) {
			t.Fatalf("propagate+retract not identity at state %d: %v", s, x)
		}
	}
}

func TestBeliefPropComputeNormalizes(t *testing.T) {
	p := NewBeliefProp(3)
	out := p.Compute(0, []float64{2, 2, 4})
	if !difftest.Approx(out[0], 0.25, 0, 1e-15) || !difftest.Approx(out[2], 0.5, 0, 1e-15) {
		t.Fatalf("normalize = %v", out)
	}
	var total float64
	for _, x := range out {
		total += x
	}
	if !difftest.Approx(total, 1, 0, 1e-15) {
		t.Fatalf("belief sums to %v", total)
	}
	// Degenerate aggregates fall back to uniform.
	out = p.Compute(0, []float64{0, 0, 0})
	if !difftest.Approx(out[0], 1.0/3, 0, 1e-15) {
		t.Fatalf("degenerate = %v", out)
	}
}

func TestBeliefPropPotentialsPositive(t *testing.T) {
	p := NewBeliefProp(2)
	for v := core.VertexID(0); v < 50; v++ {
		for s := 0; s < 2; s++ {
			if p.Phi(v, s) <= 0 {
				t.Fatal("non-positive phi")
			}
			if p.Psi(v, v+1, s, 1-s) <= 0 {
				t.Fatal("non-positive psi")
			}
		}
	}
}

func TestCollabFilterSolveIdentity(t *testing.T) {
	p := NewCollabFilter(3)
	// M = I, B = [1 2 3] → (I + λI)x = B → x = B/(1+λ).
	agg := p.IdentityAgg()
	for i := 0; i < 3; i++ {
		agg.M[i*3+i] = 1
		agg.B[i] = float64(i + 1)
	}
	x := p.Compute(0, agg)
	for i := range x {
		want := float64(i+1) / 1.1
		if !difftest.Approx(x[i], want, 0, 1e-12) {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want)
		}
	}
}

func TestCollabFilterEmptyKeepsInit(t *testing.T) {
	p := NewCollabFilter(4)
	x := p.Compute(9, p.IdentityAgg())
	init := p.InitValue(9)
	for i := range x {
		if x[i] != init[i] {
			t.Fatal("empty aggregate did not keep initial factors")
		}
	}
}

func TestCollabFilterDeltaMatchesRetractPropagate(t *testing.T) {
	p := NewCollabFilter(3)
	oldV := []float64{0.3, 0.5, 0.7}
	newV := []float64{0.4, 0.1, 0.9}
	a1, a2 := p.IdentityAgg(), p.IdentityAgg()
	p.Propagate(&a1, oldV, 0, 1, 2, 0)
	p.Propagate(&a2, oldV, 0, 1, 2, 0)
	propagateDelta[[]float64, CFAgg](p, &a1, oldV, newV, 2, 0, 0)
	p.Retract(&a2, oldV, 0, 1, 2, 0)
	p.Propagate(&a2, newV, 0, 1, 2, 0)
	for i := range a1.M {
		if !difftest.Approx(a1.M[i], a2.M[i], 0, 1e-12) {
			t.Fatalf("M mismatch at %d", i)
		}
	}
	for i := range a1.B {
		if !difftest.Approx(a1.B[i], a2.B[i], 0, 1e-12) {
			t.Fatalf("B mismatch at %d", i)
		}
	}
}

func TestSolveDenseSingular(t *testing.T) {
	// Two identical rows: singular.
	a := []float64{1, 2, 5, 1, 2, 5}
	if _, ok := solveDense(a, 2); ok {
		t.Fatal("solveDense accepted singular system")
	}
}

func TestSSSPOnKnownGraph(t *testing.T) {
	//      1 --2--> 2
	//  0 --1--> 1, 0 --5--> 2, 2 --1--> 3
	g := graph.MustBuild(5, []graph.Edge{
		{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 2}, {From: 0, To: 2, Weight: 5}, {From: 2, To: 3, Weight: 1},
	})
	e, err := core.NewEngine[float64, float64](g, NewSSSP(0), core.Options{MaxIterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	want := []float64{0, 1, 3, 4, math.Inf(1)}
	for v, d := range e.Values() {
		if d != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, d, want[v])
		}
	}
}

func TestSSSPDeletionLengthensPaths(t *testing.T) {
	g := graph.MustBuild(4, []graph.Edge{
		{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 1}, {From: 0, To: 2, Weight: 10}, {From: 2, To: 3, Weight: 1},
	})
	e, _ := core.NewEngine[float64, float64](g, NewSSSP(0), core.Options{MaxIterations: 50})
	e.Run()
	if e.Values()[2] != 2 {
		t.Fatalf("pre-delete dist[2] = %v", e.Values()[2])
	}
	e.ApplyBatch(graph.Batch{Del: []graph.Edge{{From: 1, To: 2}}})
	if e.Values()[2] != 10 || e.Values()[3] != 11 {
		t.Fatalf("post-delete dists = %v", e.Values())
	}
	// Deleting the remaining path disconnects.
	e.ApplyBatch(graph.Batch{Del: []graph.Edge{{From: 0, To: 2}}})
	if !math.IsInf(e.Values()[2], 1) || !math.IsInf(e.Values()[3], 1) {
		t.Fatalf("post-disconnect dists = %v", e.Values())
	}
}

func TestBFSHopCountsIgnoreWeights(t *testing.T) {
	g := graph.MustBuild(3, []graph.Edge{{From: 0, To: 1, Weight: 100}, {From: 1, To: 2, Weight: 100}})
	e, _ := core.NewEngine[float64, float64](g, NewBFS(0), core.Options{MaxIterations: 10})
	e.Run()
	if e.Values()[1] != 1 || e.Values()[2] != 2 {
		t.Fatalf("hops = %v", e.Values())
	}
}

func TestConnectedComponentsLabels(t *testing.T) {
	// Two components (symmetric edges): {0,1,2} and {3,4}.
	g := graph.MustBuild(5, []graph.Edge{
		{From: 0, To: 1, Weight: 1}, {From: 1, To: 0, Weight: 1}, {From: 1, To: 2, Weight: 1}, {From: 2, To: 1, Weight: 1}, {From: 3, To: 4, Weight: 1}, {From: 4, To: 3, Weight: 1},
	})
	e, _ := core.NewEngine[float64, float64](g, NewConnectedComponents(), core.Options{MaxIterations: 20})
	e.Run()
	want := []float64{0, 0, 0, 3, 3}
	for v, l := range e.Values() {
		if l != want[v] {
			t.Fatalf("label[%d] = %v, want %v", v, l, want[v])
		}
	}
}

func TestTriangleCountKnown(t *testing.T) {
	// Directed 3-cycle 0→1→2→0 plus a chord that makes no extra cycle.
	g := graph.MustBuild(4, []graph.Edge{
		{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 1}, {From: 2, To: 0, Weight: 1}, {From: 0, To: 2, Weight: 1},
	})
	tc := NewTriangleCounter(g)
	if tc.Triangles() != 1 {
		t.Fatalf("triangles = %d, want 1", tc.Triangles())
	}
	if tc.Count() != CountGraph(g) {
		t.Fatalf("counter %d vs CountGraph %d", tc.Count(), CountGraph(g))
	}
}

func TestTriangleCountIncrementalMatchesRecount(t *testing.T) {
	edges := gen.RMAT(41, 128, 1500, gen.WeightUnit)
	g := graph.MustBuild(128, edges)
	tc := NewTriangleCounter(g)
	if tc.Count() != CountGraph(g) {
		t.Fatalf("initial: %d vs %d", tc.Count(), CountGraph(g))
	}
	r := gen.NewRNG(99)
	for round := 0; round < 5; round++ {
		var b graph.Batch
		for i := 0; i < 30; i++ {
			b.Add = append(b.Add, graph.Edge{
				From: graph.VertexID(r.Intn(140)), To: graph.VertexID(r.Intn(140)), Weight: 1,
			})
		}
		all := g.Edges(nil)
		for i := 0; i < 20 && len(all) > 0; i++ {
			e := all[r.Intn(len(all))]
			b.Del = append(b.Del, graph.Edge{From: e.From, To: e.To})
		}
		tc.Apply(b)
		g, _ = g.Apply(b)
		if got, want := tc.Count(), CountGraph(g); got != want {
			t.Fatalf("round %d: incremental %d vs recount %d", round, got, want)
		}
	}
}

func TestTriangleCountSelfLoopsIgnored(t *testing.T) {
	g := graph.MustBuild(3, []graph.Edge{
		{From: 0, To: 0, Weight: 1}, {From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 1}, {From: 2, To: 0, Weight: 1}, {From: 1, To: 1, Weight: 1},
	})
	tc := NewTriangleCounter(g)
	if tc.Triangles() != 1 {
		t.Fatalf("triangles with self-loops = %d, want 1", tc.Triangles())
	}
	// Deleting and re-adding a self-loop must not change the count.
	tc.Apply(graph.Batch{Del: []graph.Edge{{From: 0, To: 0}}})
	tc.Apply(graph.Batch{Add: []graph.Edge{{From: 0, To: 0, Weight: 1}}})
	if tc.Triangles() != 1 {
		t.Fatalf("triangles after self-loop churn = %d", tc.Triangles())
	}
}

func TestTriangleCountMissingDelete(t *testing.T) {
	g := graph.MustBuild(2, []graph.Edge{{From: 0, To: 1, Weight: 1}})
	tc := NewTriangleCounter(g)
	if missing := tc.Apply(graph.Batch{Del: []graph.Edge{{From: 1, To: 0}}}); missing != 1 {
		t.Fatalf("missing = %d, want 1", missing)
	}
}

func TestTriangleTopVertices(t *testing.T) {
	g := graph.MustBuild(5, []graph.Edge{
		{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 1}, {From: 2, To: 0, Weight: 1},
	})
	tc := NewTriangleCounter(g)
	top := tc.TopTriangleVertices(2)
	if len(top) != 2 || top[0].Closures != 1 {
		t.Fatalf("top = %v", top)
	}
}

func TestHashUnitRange(t *testing.T) {
	for i := uint64(0); i < 1000; i++ {
		u := hashUnit(i)
		if u < 0 || u >= 1 {
			t.Fatalf("hashUnit(%d) = %v", i, u)
		}
	}
}

func TestPersonalizedPageRankBiasesTowardSources(t *testing.T) {
	// Chain 0→1→2→3 plus 3→0 back edge; personalize on 0.
	g := graph.MustBuild(4, []graph.Edge{
		{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 1},
		{From: 2, To: 3, Weight: 1}, {From: 3, To: 0, Weight: 1},
	})
	ppr := NewPersonalizedPageRank([]core.VertexID{0})
	e, err := core.NewEngine[float64, float64](g, ppr, core.Options{MaxIterations: 60})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	vals := e.Values()
	// Mass decays along the chain away from the source.
	if !(vals[0] > vals[1] && vals[1] > vals[2] && vals[2] > vals[3]) {
		t.Fatalf("PPR not decaying from source: %v", vals)
	}
}

func TestPersonalizedPageRankRefinementMatchesScratch(t *testing.T) {
	edges := gen.RMAT(45, 120, 900, gen.WeightUnit)
	g := graph.MustBuild(120, edges)
	ppr := NewPersonalizedPageRank([]core.VertexID{3, 9})
	opts := core.Options{MaxIterations: 10, Horizon: 5}
	inc, _ := core.NewEngine[float64, float64](g, ppr, opts)
	inc.Run()
	r := gen.NewRNG(5)
	var b graph.Batch
	for i := 0; i < 20; i++ {
		b.Add = append(b.Add, graph.Edge{From: graph.VertexID(r.Intn(120)), To: graph.VertexID(r.Intn(120)), Weight: 1})
	}
	all := g.Edges(nil)
	for i := 0; i < 10; i++ {
		e := all[r.Intn(len(all))]
		b.Del = append(b.Del, graph.Edge{From: e.From, To: e.To})
	}
	inc.ApplyBatch(b)
	fresh, _ := core.NewEngine[float64, float64](inc.Graph(), ppr, core.Options{Mode: core.ModeReset, MaxIterations: 10})
	fresh.Run()
	for v := range inc.Values() {
		d := inc.Values()[v] - fresh.Values()[v]
		if d > 1e-9 || d < -1e-9 {
			t.Fatalf("vertex %d: %v vs %v", v, inc.Values()[v], fresh.Values()[v])
		}
	}
}

func TestKatzCentralityChain(t *testing.T) {
	// Chain 0→1→2: katz(2) > katz(1) > katz(0) (receiving more paths).
	g := graph.MustBuild(3, []graph.Edge{{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 1}})
	e, err := core.NewEngine[float64, float64](g, NewKatz(), core.Options{MaxIterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	v := e.Values()
	if !(v[2] > v[1] && v[1] > v[0]) {
		t.Fatalf("katz not ordered by reachability: %v", v)
	}
	// Exact fixed point: k0 = 1; k1 = 1 + .01·k0; k2 = 1 + .01·k1.
	if !difftest.Approx(v[1], 1.01, 0, 1e-12) || !difftest.Approx(v[2], 1.0101, 0, 1e-12) {
		t.Fatalf("katz values %v", v)
	}
}

func TestKatzRefinementMatchesScratch(t *testing.T) {
	edges := gen.RMAT(46, 120, 800, gen.WeightUnit)
	g := graph.MustBuild(120, edges)
	opts := core.Options{MaxIterations: 12, Horizon: 6}
	inc, _ := core.NewEngine[float64, float64](g, NewKatz(), opts)
	inc.Run()
	r := gen.NewRNG(6)
	var b graph.Batch
	for i := 0; i < 25; i++ {
		b.Add = append(b.Add, graph.Edge{From: graph.VertexID(r.Intn(120)), To: graph.VertexID(r.Intn(120)), Weight: 1})
	}
	all := g.Edges(nil)
	for i := 0; i < 15; i++ {
		e := all[r.Intn(len(all))]
		b.Del = append(b.Del, graph.Edge{From: e.From, To: e.To})
	}
	inc.ApplyBatch(b)
	fresh, _ := core.NewEngine[float64, float64](inc.Graph(), NewKatz(), core.Options{Mode: core.ModeReset, MaxIterations: 12})
	fresh.Run()
	for v := range inc.Values() {
		d := inc.Values()[v] - fresh.Values()[v]
		if d > 1e-10 || d < -1e-10 {
			t.Fatalf("vertex %d: %v vs %v", v, inc.Values()[v], fresh.Values()[v])
		}
	}
}

// TestBeliefPropPropagateDoesNotAllocate: the per-edge message vector of
// a small model lives in a fixed array on the caller's stack.
func TestBeliefPropPropagateDoesNotAllocate(t *testing.T) {
	for _, states := range []int{2, 3} {
		p := NewBeliefProp(states)
		agg, src := p.IdentityAgg(), p.InitValue(0)
		allocs := testing.AllocsPerRun(100, func() {
			p.Propagate(&agg, src, 0, 1, 1, 0)
			p.Retract(&agg, src, 0, 1, 1, 0)
		})
		if allocs != 0 {
			t.Errorf("States %d: %v allocations per Propagate+Retract, want 0", states, allocs)
		}
	}
}
