package core_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stream"
)

// workCounterLines streams the first 12 batches of s through one engine
// and renders each batch's work counters as a line of the golden file.
func workCounterLines[V, A any](t *testing.T, s *stream.Stream, name string, p core.Program[V, A], mode core.Mode) []string {
	t.Helper()
	eng, err := core.NewEngine[V, A](s.Base, p, core.Options{Mode: mode, MaxIterations: 10, Horizon: 6})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	var lines []string
	for bi, b := range s.Batches[:12] {
		st, err := eng.ApplyBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("%s %v batch=%d iterations=%d edges=%d vertices=%d refine=%d",
			name, mode, bi, st.Iterations, st.EdgeComputations, st.VertexComputations, st.RefineIterations))
	}
	return lines
}

// TestGoldenWorkCounters pins the work counters EXPERIMENTS.md's Fig. 6
// and Table 7 ratios are built from: one fixed stream, every incremental
// mode, a delta program (PageRank), a retract+propagate program (Belief
// Propagation) and a pull program (SSSP). Float sums — and with them
// every Changed decision — are a function of the stream alone at any
// GOMAXPROCS (TestSameStreamTwiceIsBitIdentical). A traversal change that
// is supposed to do the same work must leave testdata/work_counters.golden
// untouched.
func TestGoldenWorkCounters(t *testing.T) {
	edges := gen.RMAT(96, 400, 5000, gen.WeightUniform)
	s, err := stream.FromEdges(400, edges, stream.Config{BatchSize: 60, DeleteFraction: 0.3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, mode := range []core.Mode{core.ModeGraphBolt, core.ModeGraphBoltRP, core.ModeReset, core.ModeNaive} {
		got = append(got, workCounterLines[float64, float64](t, s, "PageRank", algorithms.NewPageRank(), mode)...)
		got = append(got, workCounterLines[[]float64, []float64](t, s, "BeliefProp", algorithms.NewBeliefProp(3), mode)...)
		got = append(got, workCounterLines[float64, float64](t, s, "SSSP", algorithms.NewSSSP(0), mode)...)
	}

	path := filepath.Join("testdata", "work_counters.golden")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v\ncurrent counters:\n%s", err, strings.Join(got, "\n"))
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d counter lines, %s has %d", len(got), path, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("got  %s\nwant %s", got[i], want[i])
		}
	}
}

// TestFrontierWithoutOutEdgesDoesNoEdgeWork: when the only changed vertex
// has no out-edges, the next level has nothing to traverse — in
// particular an empty target list must not be mistaken for "every
// vertex". 0→1 plus an isolated vertex: level 1 visits the one edge,
// level 2 (frontier {1}) visits none.
func TestFrontierWithoutOutEdgesDoesNoEdgeWork(t *testing.T) {
	g := graph.MustBuild(3, []graph.Edge{{From: 0, To: 1, Weight: 2}})

	pull, err := core.NewEngine[float64, float64](g, algorithms.NewSSSP(0), core.Options{Mode: core.ModeReset})
	if err != nil {
		t.Fatal(err)
	}
	if st := pull.Run(); st.Iterations != 2 || st.EdgeComputations != 1 {
		t.Fatalf("pull: %d iterations, %d edge computations; want 2 and 1", st.Iterations, st.EdgeComputations)
	}

	push, err := core.NewEngine[float64, float64](g, algorithms.NewKatz(), core.Options{Mode: core.ModeReset})
	if err != nil {
		t.Fatal(err)
	}
	// Katz vertices without in-edges keep their initial value, so level 2's
	// frontier is again {1}.
	if st := push.Run(); st.Iterations != 2 || st.EdgeComputations != 1 {
		t.Fatalf("push: %d iterations, %d edge computations; want 2 and 1", st.Iterations, st.EdgeComputations)
	}

	// Refinement: the new edge 1→2 reaches 2, which has no out-edges — one
	// pull visit per refined level, and a hybrid level seeded with {2}
	// that visits nothing.
	inc, err := core.NewEngine[float64, float64](g, algorithms.NewSSSP(0), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc.Run()
	st, err := inc.ApplyBatch(graph.Batch{Add: []graph.Edge{{From: 1, To: 2, Weight: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if st.HybridIterations != 1 || st.EdgeComputations != int64(st.RefineIterations) {
		t.Fatalf("refine: %d edge computations over %d refined + %d hybrid levels; want one per refined level and one hybrid level",
			st.EdgeComputations, st.RefineIterations, st.HybridIterations)
	}
}

// pairRank is PageRank with the single-pass delta hidden: a
// degree-sensitive program the engine must update by retract+propagate.
type pairRank struct {
	core.Program[float64, float64]
}

func (pairRank) UsesOutDegree() bool { return true }

// TestNaiveDegreeRepushCountsRetractPropagatePair: Stats documents a
// retract+propagate pair as 2 edge computations in every mode. The
// infinite tolerance keeps every value put, so the only edge work of the
// batch is the added edge (1) plus source 0's degree-changed re-push
// over its three out-edges.
func TestNaiveDegreeRepushCountsRetractPropagatePair(t *testing.T) {
	g := graph.MustBuild(4, []graph.Edge{{From: 0, To: 1, Weight: 1}, {From: 0, To: 2, Weight: 1}, {From: 3, To: 0, Weight: 1}})
	batch := graph.Batch{Add: []graph.Edge{{From: 0, To: 3, Weight: 1}}}
	pr := &algorithms.PageRank{Damping: 0.85, Tolerance: math.Inf(1)}

	for _, tc := range []struct {
		name string
		p    core.Program[float64, float64]
		want int64
	}{
		{"delta", pr, 1 + 3},
		{"retract+propagate", pairRank{pr}, 1 + 2*3},
	} {
		e, err := core.NewEngine[float64, float64](g, tc.p, core.Options{Mode: core.ModeNaive})
		if err != nil {
			t.Fatal(err)
		}
		e.Run()
		st, err := e.ApplyBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if st.EdgeComputations != tc.want {
			t.Errorf("%s: %d edge computations, want %d", tc.name, st.EdgeComputations, tc.want)
		}
	}
}
