package core_test

import (
	"fmt"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/stream"
)

// stoppedRunChecks streams s through one engine and, after the initial
// run and after every batch whose run stopped short of MaxIterations at
// a tracked level L, asserts that no vertex's value changed between L-1
// and L. It returns how many stopped runs it checked.
func stoppedRunChecks[V, A any](t *testing.T, s *stream.Stream, p core.Program[V, A], opts core.Options) int {
	t.Helper()
	eng, err := core.NewEngine[V, A](s.Base, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	horizon := opts.Horizon
	if horizon == 0 {
		horizon = opts.MaxIterations
	}
	checked := 0
	check := func(when string) {
		L := eng.Level()
		if L >= opts.MaxIterations || L > horizon {
			return
		}
		checked++
		for v, val := range eng.Values() {
			if prev := eng.ValueAtLevel(core.VertexID(v), L-1); p.Changed(prev, val) {
				t.Fatalf("%s: run stopped at level %d < MaxIterations, but vertex %d changed from %v at level %d to %v", when, L, v, prev, L-1, val)
			}
		}
	}
	eng.Run()
	check("run")
	for bi, b := range s.Batches {
		if _, err := eng.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("batch %d", bi))
	}
	return checked
}

// TestStoppedRunHasConverged checks the invariant refinement's hybrid
// seed rests on: a GraphBolt run that stops before MaxIterations has
// converged, so that Changed(value at L-1, published value) is false for
// every vertex. Refinement then seeds the continuation from the vertices
// it touched alone. The check covers the path programs, the tolerance
// programs (where published values may lag the history), both vertical
// pruning settings, and a horizon that the runs outgrow after a batch, so
// that later batches take the horizontally pruned branch. Every program
// must stop short somewhere: PageRank and LabelProp only do at 100
// iterations at this tolerance, so they also run there.
func TestStoppedRunHasConverged(t *testing.T) {
	const n = 1500
	s, err := stream.FromEdges(n, gen.RMAT(39, n, 12000, gen.WeightUniform),
		stream.Config{BatchSize: 60, NumBatches: 8, DeleteFraction: 0.3, Seed: 39})
	if err != nil {
		t.Fatal(err)
	}
	pr := algorithms.NewPageRank()
	pr.Tolerance = 1e-3
	katz := algorithms.NewKatz()
	katz.Tolerance = 1e-3
	lp := algorithms.NewLabelProp(3, map[core.VertexID]int{1: 0, 7: 1, 42: 2, 300: 1})
	lp.Tolerance = 1e-3
	bp := algorithms.NewBeliefProp(3)
	bp.Tolerance = 1e-2
	scalar := func(p core.Program[float64, float64]) func(*testing.T, core.Options) int {
		return func(t *testing.T, opts core.Options) int { return stoppedRunChecks(t, s, p, opts) }
	}
	vector := func(p core.Program[[]float64, []float64]) func(*testing.T, core.Options) int {
		return func(t *testing.T, opts core.Options) int { return stoppedRunChecks(t, s, p, opts) }
	}
	programs := []struct {
		name  string
		check func(*testing.T, core.Options) int
		extra []core.Options // beyond the shared grid below
	}{
		{"CC", scalar(algorithms.NewConnectedComponents()), []core.Options{{Mode: core.ModeGraphBolt, MaxIterations: 40, Horizon: 5}}},
		{"BFS", scalar(algorithms.NewBFS(0)), nil},
		{"SSSP", scalar(algorithms.NewSSSP(0)), nil},
		{"Katz", scalar(katz), nil},
		{"LabelProp", vector(lp), []core.Options{{Mode: core.ModeGraphBolt, MaxIterations: 100}}},
		{"BeliefProp", vector(bp), nil},
		{"PageRank", scalar(pr), []core.Options{{Mode: core.ModeGraphBolt, MaxIterations: 100}}},
	}
	var grid []core.Options
	for _, mode := range []core.Mode{core.ModeGraphBolt, core.ModeGraphBoltRP} {
		for _, maxIter := range []int{10, 40} {
			for _, novp := range []bool{false, true} {
				grid = append(grid, core.Options{Mode: mode, MaxIterations: maxIter, DisableVerticalPruning: novp})
			}
		}
	}
	for _, prog := range programs {
		t.Run(prog.name, func(t *testing.T) {
			total := 0
			for _, opts := range append(prog.extra, grid...) {
				t.Run(fmt.Sprintf("%v/max=%d/h=%d/novp=%v", opts.Mode, opts.MaxIterations, opts.Horizon, opts.DisableVerticalPruning), func(t *testing.T) {
					c := prog.check(t, opts)
					t.Logf("%d of %d runs stopped short", c, len(s.Batches)+1)
					total += c
				})
			}
			if total == 0 && !t.Failed() {
				t.Errorf("no %s run stopped short of MaxIterations: nothing was checked", prog.name)
			}
		})
	}
}
