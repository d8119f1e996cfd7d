package core_test

import (
	"math"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/core/difftest"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestNewEngineValidation(t *testing.T) {
	g := graph.MustBuild(2, nil)
	if _, err := core.NewEngine[float64, float64](nil, algorithms.NewPageRank(), core.Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := core.NewEngine[float64, float64](g, nil, core.Options{}); err == nil {
		t.Fatal("nil program accepted")
	}
}

func TestOptionsDefaultsBehavior(t *testing.T) {
	// Zero options: 10 iterations, horizon = iterations.
	g := graph.MustBuild(3, []graph.Edge{{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 1}})
	e, err := core.NewEngine[float64, float64](g, algorithms.NewPageRank(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Run()
	if st.Iterations > 10 || st.Iterations != e.Level() {
		t.Fatalf("default run executed %d levels (engine level %d)", st.Iterations, e.Level())
	}
	// Defaulted options behave like an explicit 10-iteration budget.
	scalarsMatch(t, e.Values(), mustRun(t, g, core.ModeReset, 10), 1e-12, "default MaxIterations")
	// Horizon beyond MaxIterations clamps (no effect on results).
	e2, _ := core.NewEngine[float64, float64](g, algorithms.NewPageRank(), core.Options{MaxIterations: 5, Horizon: 99})
	e2.Run()
	scalarsMatch(t, e2.Values(), mustRun(t, g, core.ModeReset, 5), 1e-12, "clamped horizon")
}

func mustRun(t *testing.T, g *graph.Graph, mode core.Mode, iters int) []float64 {
	t.Helper()
	e, err := core.NewEngine[float64, float64](g, algorithms.NewPageRank(), core.Options{Mode: mode, MaxIterations: iters})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	return e.Values()
}

func TestLigraModeApplyBatch(t *testing.T) {
	g := graph.MustBuild(64, gen.RMAT(61, 64, 400, gen.WeightUnit))
	e, _ := core.NewEngine[float64, float64](g, algorithms.NewPageRank(), core.Options{Mode: core.ModeLigra, MaxIterations: 6})
	e.Run()
	batch := makeBatch(g, 81, 10, 5)
	e.ApplyBatch(batch)
	fresh, _ := core.NewEngine[float64, float64](e.Graph(), algorithms.NewPageRank(),
		core.Options{Mode: core.ModeReset, MaxIterations: 6})
	fresh.Run()
	scalarsMatch(t, e.Values(), fresh.Values(), 1e-9, "Ligra ApplyBatch restart")
}

func TestNaiveModePullProgram(t *testing.T) {
	// The naive baseline's pull path: SSSP continues from current
	// distances; with additions only it still converges correctly
	// (monotone), the regime where naive reuse happens to work.
	g := graph.MustBuild(5, []graph.Edge{{From: 0, To: 1, Weight: 2}, {From: 1, To: 2, Weight: 2}})
	e, _ := core.NewEngine[float64, float64](g, algorithms.NewSSSP(0), core.Options{Mode: core.ModeNaive, MaxIterations: 50})
	e.Run()
	e.ApplyBatch(graph.Batch{Add: []graph.Edge{{From: 2, To: 3, Weight: 1}, {From: 0, To: 4, Weight: 9}}})
	want := []float64{0, 2, 4, 5, 9}
	for v, d := range e.Values() {
		if d != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, d, want[v])
		}
	}
}

func TestValueAtLevelTrajectory(t *testing.T) {
	// 0→1: rank(1) trajectory is exactly reconstructible per level.
	g := graph.MustBuild(2, []graph.Edge{{From: 0, To: 1, Weight: 1}})
	e, _ := core.NewEngine[float64, float64](g, algorithms.NewPageRank(), core.Options{MaxIterations: 4})
	e.Run()
	if got := e.ValueAtLevel(1, 0); got != 1 {
		t.Fatalf("level0 = %v, want initial 1", got)
	}
	if got := e.ValueAtLevel(1, 1); !difftest.Approx(got, 1.0, 0, 1e-12) { // 0.15+0.85·1
		t.Fatalf("level1 = %v, want 1.0", got)
	}
	if got := e.ValueAtLevel(1, 2); !difftest.Approx(got, 0.2775, 0, 1e-12) { // 0.15+0.85·0.15
		t.Fatalf("level2 = %v, want 0.2775", got)
	}
}

func TestRepeatedRunRestarts(t *testing.T) {
	g := graph.MustBuild(32, gen.RMAT(62, 32, 200, gen.WeightUnit))
	e, _ := core.NewEngine[float64, float64](g, algorithms.NewPageRank(), core.Options{MaxIterations: 6})
	e.Run()
	first := append([]float64(nil), e.Values()...)
	e.ApplyBatch(makeBatch(g, 83, 5, 3))
	e2, _ := core.NewEngine[float64, float64](g, algorithms.NewPageRank(), core.Options{MaxIterations: 6})
	e2.Run()
	// A second engine over the ORIGINAL graph reproduces the first run.
	scalarsMatch(t, e2.Values(), first, 0, "determinism across engines")
}

func TestToleranceApproximateRegime(t *testing.T) {
	// With a selective-scheduling tolerance, refined results stay within
	// a modest multiple of it from scratch results.
	edges := gen.RMAT(63, 200, 1500, gen.WeightUniform)
	g := graph.MustBuild(200, edges)
	pr := &algorithms.PageRank{Damping: 0.85, Tolerance: 1e-4}
	inc, _ := core.NewEngine[float64, float64](g, pr, core.Options{MaxIterations: 10})
	inc.Run()
	for b := 0; b < 3; b++ {
		inc.ApplyBatch(makeBatch(inc.Graph(), uint64(90+b), 20, 10))
	}
	fresh, _ := core.NewEngine[float64, float64](inc.Graph(), &algorithms.PageRank{Damping: 0.85},
		core.Options{Mode: core.ModeReset, MaxIterations: 10})
	fresh.Run()
	worst := 0.0
	for v := range inc.Values() {
		if d := math.Abs(inc.Values()[v] - fresh.Values()[v]); d > worst {
			worst = d
		}
	}
	// Tolerance-gated deltas can accumulate across in-degrees and
	// batches; bound it loosely but meaningfully.
	if worst > 0.05 {
		t.Fatalf("tolerance-mode divergence %v too large", worst)
	}
}
