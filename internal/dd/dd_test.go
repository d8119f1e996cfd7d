package dd

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestMultisetApply(t *testing.T) {
	m := Multiset[int]{}
	m.Apply(Diff[int]{5, 2})
	m.Apply(Diff[int]{5, -1})
	if m[5] != 1 {
		t.Fatalf("count = %d", m[5])
	}
	m.Apply(Diff[int]{5, -1})
	if _, ok := m[5]; ok {
		t.Fatal("zero count not removed")
	}
}

func TestJoinBilinear(t *testing.T) {
	j := NewJoin[int, string, string, string](func(k int, a, b string) string { return a + b })
	out := j.Update(
		[]Diff[KV[int, string]]{{KV[int, string]{1, "x"}, 1}},
		[]Diff[KV[int, string]]{{KV[int, string]{1, "y"}, 1}},
	)
	// dL⋈dR must be produced exactly once.
	if len(out) != 1 || out[0].Rec != "xy" || out[0].Delta != 1 {
		t.Fatalf("out = %v", out)
	}
	// Retraction of the left side removes the pair.
	out = j.Update([]Diff[KV[int, string]]{{KV[int, string]{1, "x"}, -1}}, nil)
	if len(out) != 1 || out[0].Rec != "xy" || out[0].Delta != -1 {
		t.Fatalf("retract out = %v", out)
	}
}

func TestReduceRetractsOldResult(t *testing.T) {
	r := NewReduce[int, int, int](func(_ int, g Multiset[int]) (int, bool) {
		sum := 0
		for v, c := range g {
			sum += v * c
		}
		return sum, true
	})
	out := r.Update([]Diff[KV[int, int]]{{KV[int, int]{1, 10}, 1}})
	if len(out) != 1 || out[0].Rec.Val != 10 || out[0].Delta != 1 {
		t.Fatalf("first = %v", out)
	}
	out = r.Update([]Diff[KV[int, int]]{{KV[int, int]{1, 5}, 1}})
	// Expect retraction of 10, insertion of 15.
	var sawRetract, sawInsert bool
	for _, d := range out {
		if d.Rec.Val == 10 && d.Delta == -1 {
			sawRetract = true
		}
		if d.Rec.Val == 15 && d.Delta == 1 {
			sawInsert = true
		}
	}
	if !sawRetract || !sawInsert {
		t.Fatalf("out = %v", out)
	}
	// Emptying the group retracts entirely.
	out = r.Update([]Diff[KV[int, int]]{{KV[int, int]{1, 10}, -1}, {KV[int, int]{1, 5}, -1}})
	if len(out) != 1 || out[0].Delta != -1 {
		t.Fatalf("empty-group out = %v", out)
	}
}

func TestReduceUnchangedEmitsNothing(t *testing.T) {
	r := NewReduce[int, int, int](func(_ int, g Multiset[int]) (int, bool) { return 42, true })
	r.Update([]Diff[KV[int, int]]{{KV[int, int]{1, 1}, 1}})
	out := r.Update([]Diff[KV[int, int]]{{KV[int, int]{1, 2}, 1}})
	if len(out) != 0 {
		t.Fatalf("constant reduce emitted %v", out)
	}
}

// referencePR computes K damped BSP PageRank iterations directly.
func referencePR(n int, edges []graph.Edge, k int, damping float64) []float64 {
	deg := make([]int, n)
	for _, e := range edges {
		deg[e.From]++
	}
	ranks := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1
	}
	for it := 0; it < k; it++ {
		agg := make([]float64, n)
		for _, e := range edges {
			agg[e.To] += ranks[e.From] / float64(deg[e.From])
		}
		for v := range ranks {
			ranks[v] = (1 - damping) + damping*agg[v]
		}
	}
	return ranks
}

func prEdges(edges []graph.Edge) []KV[uint32, uint32] {
	out := make([]KV[uint32, uint32], len(edges))
	for i, e := range edges {
		out[i] = KV[uint32, uint32]{e.From, e.To}
	}
	return out
}

func TestPageRankMatchesReference(t *testing.T) {
	edges := gen.RMAT(61, 64, 400, gen.WeightUnit)
	n := 64
	verts := make([]uint32, n)
	for i := range verts {
		verts[i] = uint32(i)
	}
	pr := NewPageRank(6, 0.85)
	pr.Update(verts, prEdges(edges), nil)
	want := referencePR(n, edges, 6, 0.85)
	got := pr.Ranks()
	for v := 0; v < n; v++ {
		if math.Abs(got[uint32(v)]-want[v]) > 1e-9 {
			t.Fatalf("v%d: %v vs %v", v, got[uint32(v)], want[v])
		}
	}
}

func TestPageRankIncrementalEpochs(t *testing.T) {
	n := 48
	edges := gen.RMAT(62, n, 300, gen.WeightUnit)
	verts := make([]uint32, n)
	for i := range verts {
		verts[i] = uint32(i)
	}
	pr := NewPageRank(5, 0.85)
	pr.Update(verts, prEdges(edges), nil)

	r := gen.NewRNG(7)
	current := append([]graph.Edge(nil), edges...)
	for epoch := 0; epoch < 4; epoch++ {
		var adds []graph.Edge
		for i := 0; i < 10; i++ {
			adds = append(adds, graph.Edge{From: graph.VertexID(r.Intn(n)), To: graph.VertexID(r.Intn(n)), Weight: 1})
		}
		var dels []graph.Edge
		for i := 0; i < 5 && len(current) > 0; i++ {
			k := r.Intn(len(current))
			dels = append(dels, current[k])
			current = append(current[:k], current[k+1:]...)
		}
		current = append(current, adds...)
		pr.Update(nil, prEdges(adds), prEdges(dels))

		want := referencePR(n, current, 5, 0.85)
		got := pr.Ranks()
		for v := 0; v < n; v++ {
			if math.Abs(got[uint32(v)]-want[v]) > 1e-9 {
				t.Fatalf("epoch %d v%d: %v vs %v", epoch, v, got[uint32(v)], want[v])
			}
		}
	}
	if pr.Stats() == 0 {
		t.Fatal("no work recorded")
	}
}

func TestPageRankDeleteMissingEdgeNoop(t *testing.T) {
	pr := NewPageRank(3, 0.85)
	pr.Update([]uint32{0, 1}, []KV[uint32, uint32]{{0, 1}}, nil)
	before := pr.Ranks()
	pr.Update(nil, nil, []KV[uint32, uint32]{{1, 0}})
	after := pr.Ranks()
	for v, r := range before {
		if after[v] != r {
			t.Fatal("missing deletion changed ranks")
		}
	}
}

// referenceSSSP is Bellman-Ford.
func referenceSSSP(n int, edges []graph.Edge, src uint32) map[uint32]float64 {
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for round := 0; round < n; round++ {
		changed := false
		for _, e := range edges {
			if nd := dist[e.From] + e.Weight; nd < dist[e.To] {
				dist[e.To] = nd
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	out := map[uint32]float64{}
	for v, d := range dist {
		if !math.IsInf(d, 1) {
			out[uint32(v)] = d
		}
	}
	return out
}

func ssspEdges(edges []graph.Edge) []KV[uint32, WeightedEdge] {
	out := make([]KV[uint32, WeightedEdge], len(edges))
	for i, e := range edges {
		out[i] = KV[uint32, WeightedEdge]{e.From, WeightedEdge{e.To, e.Weight}}
	}
	return out
}

func ssspMatches(got, want map[uint32]float64) bool {
	if len(got) != len(want) {
		return false
	}
	for v, d := range want {
		if got[v] != d {
			return false
		}
	}
	return true
}

func TestSSSPMatchesReference(t *testing.T) {
	n := 40
	edges := gen.RMAT(63, n, 250, gen.WeightSmallInt)
	s := NewSSSP(0, 4*n)
	s.Update(ssspEdges(edges), nil)
	if !ssspMatches(s.Distances(), referenceSSSP(n, edges, 0)) {
		t.Fatalf("initial mismatch")
	}
}

// Property: incremental SSSP epochs match Bellman-Ford on the final
// edge set, including deletions that lengthen or disconnect paths.
func TestQuickSSSPEpochs(t *testing.T) {
	check := func(seed uint64) bool {
		r := gen.NewRNG(seed)
		n := 5 + r.Intn(25)
		m := r.Intn(4 * n)
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{
				From:   graph.VertexID(r.Intn(n)),
				To:     graph.VertexID(r.Intn(n)),
				Weight: float64(r.Intn(9) + 1),
			}
		}
		s := NewSSSP(0, 4*n)
		s.Update(ssspEdges(edges), nil)
		current := append([]graph.Edge(nil), edges...)
		for epoch := 0; epoch < 1+r.Intn(3); epoch++ {
			var adds, dels []graph.Edge
			for i := 0; i < r.Intn(6); i++ {
				adds = append(adds, graph.Edge{
					From:   graph.VertexID(r.Intn(n)),
					To:     graph.VertexID(r.Intn(n)),
					Weight: float64(r.Intn(9) + 1),
				})
			}
			for i := 0; i < r.Intn(6) && len(current) > 0; i++ {
				k := r.Intn(len(current))
				dels = append(dels, current[k])
				current = append(current[:k], current[k+1:]...)
			}
			current = append(current, adds...)
			s.Update(ssspEdges(adds), ssspEdges(dels))
			if !ssspMatches(s.Distances(), referenceSSSP(n, current, 0)) {
				t.Logf("seed %d epoch %d: got %v want %v", seed, epoch, s.Distances(), referenceSSSP(n, current, 0))
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestSSSPTailInputMoved: an epoch can leave the deepest level's output
// unchanged while moving its input — deleting 0→1 delays vertex 1 by a
// hop at the same distance — so the loop must not stop there: the new
// edge 1→3 only shows one level further down.
func TestSSSPTailInputMoved(t *testing.T) {
	base := []graph.Edge{
		{From: 0, To: 1, Weight: 2}, {From: 0, To: 2, Weight: 1},
		{From: 2, To: 1, Weight: 1}, {From: 0, To: 3, Weight: 10},
	}
	s := NewSSSP(0, 16)
	s.Update(ssspEdges(base), nil)
	adds := []graph.Edge{{From: 1, To: 3, Weight: 1}}
	s.Update(ssspEdges(adds), ssspEdges(base[:1]))
	want := referenceSSSP(4, append(base[1:], adds...), 0)
	if got := s.Distances(); !ssspMatches(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}
