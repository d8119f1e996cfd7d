package core_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/core/difftest"
	"repro/internal/gen"
	"repro/internal/stream"
)

// TestPullProgramsMatchLigraAtEveryLevel checks witness-checked
// refinement level by level: after each batch, every
// tracked level i ≤ H of an incremental engine must equal, bit for bit, a
// ModeLigra run of i iterations on the mutated graph, and the published
// values must equal one run to MaxIterations. ModeLigra shares no kernel
// with refinement or the hybrid continuation, which Horizon <
// MaxIterations makes run. Small integer weights make ties — losses
// Witness must report — common, and a quarter of each batch deletes.
func TestPullProgramsMatchLigraAtEveryLevel(t *testing.T) {
	const n, horizon, maxIter = 300, 4, 64
	s, err := stream.FromEdges(n, gen.RMAT(71, n, 2400, gen.WeightSmallInt),
		stream.Config{BatchSize: 40, DeleteFraction: 0.25, Seed: 13, NumBatches: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range []struct {
		name string
		p    core.Program[float64, float64]
	}{
		{"SSSP", algorithms.NewSSSP(0)},
		{"BFS", algorithms.NewBFS(0)},
		{"CC", algorithms.NewConnectedComponents()},
	} {
		for _, mode := range []core.Mode{core.ModeGraphBolt, core.ModeGraphBoltRP} {
			label := fmt.Sprintf("%s %v", pc.name, mode)
			eng, err := core.NewEngine[float64, float64](s.Base, pc.p, core.Options{Mode: mode, MaxIterations: maxIter, Horizon: horizon})
			if err != nil {
				t.Fatal(err)
			}
			eng.Run()
			hybrid := 0
			for bi, b := range s.Batches {
				st, err := eng.ApplyBatch(b)
				if err != nil {
					t.Fatal(err)
				}
				hybrid += st.HybridIterations
				for i := 1; i <= horizon; i++ {
					want := ligraValues(t, eng, pc.p, i)
					for v, w := range want {
						if got := eng.ValueAtLevel(core.VertexID(v), i); math.Float64bits(got) != math.Float64bits(w) {
							t.Fatalf("%s: batch %d: level %d vertex %d: %v, want %v", label, bi, i, v, got, w)
						}
					}
				}
				for v, w := range ligraValues(t, eng, pc.p, maxIter) {
					if got := eng.Values()[v]; math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("%s: batch %d: vertex %d: %v, want %v", label, bi, v, got, w)
					}
				}
			}
			if hybrid == 0 {
				t.Fatalf("%s: no batch ran the hybrid continuation", label)
			}
		}
	}
}

// TestPushProgramsMatchLigraAtEveryLevel is the per-level check for
// refinement of decomposable programs: after each batch, every tracked
// level i ≤ H must match a ModeLigra run of i iterations on the mutated
// graph, and the published values one run to MaxIterations, which cuts
// PageRank and BeliefProp short so the hybrid continuation always runs.
// Refinement adds and takes out contributions where ModeLigra sums each
// in-neighbourhood afresh, so values agree up to rounding, which grows
// with the levels behind a value: within levelTol(i). Vertical pruning
// is on (the default) and a quarter of each batch deletes, so refinement
// extends short histories and must restore their tails.
func TestPushProgramsMatchLigraAtEveryLevel(t *testing.T) {
	const n, horizon, maxIter = 300, 4, 12
	s, err := stream.FromEdges(n, gen.RMAT(72, n, 2400, gen.WeightUniform),
		stream.Config{BatchSize: 40, DeleteFraction: 0.25, Seed: 17, NumBatches: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []core.Mode{core.ModeGraphBolt, core.ModeGraphBoltRP} {
		opts := core.Options{Mode: mode, MaxIterations: maxIter, Horizon: horizon}
		pushLevelsMatchLigra[float64, float64](t, s, "PageRank", algorithms.NewPageRank(), opts, scalar)
		pushLevelsMatchLigra[[]float64, []float64](t, s, "BeliefProp", algorithms.NewBeliefProp(3), opts, vector)
	}
}

// levelTol is the relative and absolute distance allowed between a value
// refined incrementally at level i and the same level computed from
// scratch. Both programs schedule at tolerance 0, so the difference is
// rounding alone, which each level and each batch add to; on this test's
// stream it stays below 1e-13, a hundredth of levelTol(1).
func levelTol(i int) float64 { return float64(i) * 1e-12 }

func pushLevelsMatchLigra[V, A any](t *testing.T, s *stream.Stream, name string, p core.Program[V, A], opts core.Options, flat func(V) []float64) {
	t.Helper()
	label := fmt.Sprintf("%s %v", name, opts.Mode)
	eng, err := core.NewEngine(s.Base, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	check := func(bi, level int, got func(v int) V, want []V) {
		t.Helper()
		tol := levelTol(level)
		for v, w := range want {
			g, w := flat(got(v)), flat(w)
			if !slices.EqualFunc(g, w, func(x, y float64) bool { return difftest.Approx(x, y, tol, tol) }) {
				t.Fatalf("%s: batch %d: level %d vertex %d: %v, want %v", label, bi, level, v, g, w)
			}
		}
	}
	hybrid := 0
	for bi, b := range s.Batches {
		st, err := eng.ApplyBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		hybrid += st.HybridIterations
		for i := 1; i <= opts.Horizon; i++ {
			check(bi, i, func(v int) V { return eng.ValueAtLevel(core.VertexID(v), i) }, ligraValues(t, eng, p, i))
		}
		check(bi, opts.MaxIterations, func(v int) V { return eng.Values()[v] }, ligraValues(t, eng, p, opts.MaxIterations))
	}
	if hybrid == 0 {
		t.Fatalf("%s: no batch ran the hybrid continuation", label)
	}
}

// TestWitnessMatchesFullRepull runs each pull program next to a copy
// whose Witness reports every loss, so that every target a batch or a
// changed source reaches re-pulls its whole in-neighbourhood — the
// refinement the witness check replaces. Both must publish the same bits
// after every batch, in every incremental mode. MaxIterations 3 cuts the
// runs short with a non-empty frontier, whose out-neighbours' aggregates
// ModeNaive's next batch must bring up to date before it folds losses
// into them.
func TestWitnessMatchesFullRepull(t *testing.T) {
	const n = 300
	s, err := stream.FromEdges(n, gen.RMAT(302, n, 3000, gen.WeightSmallInt),
		stream.Config{BatchSize: 30, DeleteFraction: 0.25, Seed: 5, NumBatches: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range []struct {
		name string
		p    core.Program[float64, float64]
	}{
		{"SSSP", algorithms.NewSSSP(0)},
		{"BFS", algorithms.NewBFS(0)},
		{"CC", algorithms.NewConnectedComponents()},
	} {
		for _, mode := range []core.Mode{core.ModeGraphBolt, core.ModeGraphBoltRP, core.ModeReset, core.ModeNaive} {
			for _, maxIter := range []int{3, 64} {
				label := fmt.Sprintf("%s %v MaxIterations %d", pc.name, mode, maxIter)
				opts := core.Options{Mode: mode, MaxIterations: maxIter, Horizon: 2}
				want, _ := streamValues[float64, float64](t, s, len(s.Batches), repullAll{pc.p}, opts, nil)
				got, _ := streamValues(t, s, len(s.Batches), pc.p, opts, nil)
				requireSameBits(t, label, want, got, scalar)
			}
		}
	}
}

// repullAll is a pull program whose Witness reports every loss.
type repullAll struct{ core.Program[float64, float64] }

func (repullAll) Witness(float64, float64, core.VertexID, core.VertexID, float64, int) bool {
	return true
}

// ligraValues runs p for iterations levels from scratch on eng's graph.
func ligraValues[V, A any](t *testing.T, eng *core.Engine[V, A], p core.Program[V, A], iterations int) []V {
	t.Helper()
	ref, err := core.NewEngine(eng.Graph(), p, core.Options{Mode: core.ModeLigra, MaxIterations: iterations})
	if err != nil {
		t.Fatal(err)
	}
	ref.Run()
	return ref.Values()
}
