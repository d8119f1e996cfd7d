package core_test

import (
	"fmt"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/stream"
)

// TestPushAndPullDirectionsAgree forces every ⋃△ call sparse, then
// dense, on the same stream: per-call Stats and every published value
// must be equal, bit for bit. The sparse direction walks sources in the
// order pushEdges receives them and the dense one walks each target's
// sorted in-list, so this is the test that catches a source list that is
// not ascending (refinement's union of changed and degree-changed
// sources).
func TestPushAndPullDirectionsAgree(t *testing.T) {
	s, err := stream.FromEdges(400, gen.RMAT(96, 400, 5000, gen.WeightUniform), stream.Config{BatchSize: 60, DeleteFraction: 0.3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []core.Mode{core.ModeGraphBolt, core.ModeGraphBoltRP, core.ModeReset, core.ModeNaive} {
		sameInBothDirections[float64, float64](t, s, "PageRank", algorithms.NewPageRank(), mode, scalar)
		sameInBothDirections[[]float64, []float64](t, s, "BeliefProp", algorithms.NewBeliefProp(3), mode, vector)
		// Vector deltas: the dense fold gathers slice headers into a
		// worker's buffer, and each source's delta storage is reused.
		sameInBothDirections[[]float64, []float64](t, s, "LabelProp", algorithms.NewLabelProp(3, map[core.VertexID]int{1: 0, 7: 1, 42: 2}), mode, vector)
		sameInBothDirections[[]float64, algorithms.CFAgg](t, s, "CollabFilter", algorithms.NewCollabFilter(3), mode, vector)
	}
}

func sameInBothDirections[V, A any](t *testing.T, s *stream.Stream, name string, p core.Program[V, A], mode core.Mode, flat func(V) []float64) {
	t.Helper()
	label := fmt.Sprintf("%s %v, dense vs sparse", name, mode)
	opts := core.Options{Mode: mode, MaxIterations: 10, Horizon: 6}
	sparseVals, sparseStats := streamValues(t, s, 12, p, opts, func(e *core.Engine[V, A]) { e.ForceDirection(false) })
	denseVals, denseStats := streamValues(t, s, 12, p, opts, func(e *core.Engine[V, A]) { e.ForceDirection(true) })
	for i := range sparseStats {
		if denseStats[i] != sparseStats[i] {
			t.Fatalf("%s: step %d: stats %+v vs %+v", label, i, denseStats[i], sparseStats[i])
		}
	}
	requireSameBits(t, label, sparseVals, denseVals, flat)
}
