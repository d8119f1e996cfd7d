package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func edgesOf(g *Graph) []Edge { return g.Edges(nil) }

func TestBuildBasics(t *testing.T) {
	g := MustBuild(5, []Edge{
		{0, 1, 1}, {1, 2, 2}, {2, 0, 3}, {2, 1, 4}, {3, 4, 5}, {1, 2, 6},
	})
	if g.NumVertices() != 5 || g.NumEdges() != 6 {
		t.Fatalf("V=%d E=%d, want 5/6", g.NumVertices(), g.NumEdges())
	}
	if g.OutDegree(1) != 2 || g.InDegree(2) != 2 {
		t.Fatalf("deg out(1)=%d in(2)=%d, want 2/2", g.OutDegree(1), g.InDegree(2))
	}
	if !g.HasEdge(2, 0) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
	if w, ok := g.EdgeWeight(3, 4); !ok || w != 5 {
		t.Fatalf("EdgeWeight(3,4) = %v,%v", w, ok)
	}
	ts, ws := g.OutNeighbors(1)
	if !reflect.DeepEqual(ts, []VertexID{2, 2}) || ws[0] != 2 || ws[1] != 6 {
		t.Fatalf("out(1) = %v %v", ts, ws)
	}
	// In-neighbors sorted by source, weight tiebreak.
	ts, ws = g.InNeighbors(2)
	if !reflect.DeepEqual(ts, []VertexID{1, 1}) || ws[0] != 2 || ws[1] != 6 {
		t.Fatalf("in(2) = %v %v", ts, ws)
	}
}

func TestBuildRejectsOutOfRange(t *testing.T) {
	if _, err := Build(2, []Edge{{0, 2, 1}}); err == nil {
		t.Fatal("Build accepted out-of-range endpoint")
	}
}

func TestBuildEmpty(t *testing.T) {
	g := MustBuild(0, nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph not empty")
	}
	g = MustBuild(3, nil)
	if g.OutDegree(2) != 0 {
		t.Fatal("vertex in edgeless graph has degree")
	}
}

func TestApplyAdditions(t *testing.T) {
	g := MustBuild(3, []Edge{{0, 1, 1}})
	ng, res := g.Apply(Batch{Add: []Edge{{1, 2, 2}, {0, 2, 3}}})
	if ng.NumEdges() != 3 || len(res.Added) != 2 || len(res.Deleted) != 0 {
		t.Fatalf("apply result: E=%d added=%d deleted=%d", ng.NumEdges(), len(res.Added), len(res.Deleted))
	}
	if !ng.HasEdge(1, 2) || !ng.HasEdge(0, 2) || !ng.HasEdge(0, 1) {
		t.Fatal("missing edges after add")
	}
	// Old snapshot untouched.
	if g.NumEdges() != 1 || g.HasEdge(1, 2) {
		t.Fatal("Apply mutated receiver")
	}
}

func TestApplyDeletionsReportWeights(t *testing.T) {
	g := MustBuild(3, []Edge{{0, 1, 7}, {1, 2, 9}})
	ng, res := g.Apply(Batch{Del: []Edge{{From: 0, To: 1}}})
	if ng.NumEdges() != 1 || ng.HasEdge(0, 1) {
		t.Fatal("edge not deleted")
	}
	if len(res.Deleted) != 1 || res.Deleted[0].Weight != 7 {
		t.Fatalf("Deleted = %v, want weight 7", res.Deleted)
	}
	// CSC consistent.
	if ng.InDegree(1) != 0 || ng.InDegree(2) != 1 {
		t.Fatalf("in-degrees wrong: %d %d", ng.InDegree(1), ng.InDegree(2))
	}
}

func TestApplyMissingDelete(t *testing.T) {
	g := MustBuild(3, []Edge{{0, 1, 1}})
	ng, res := g.Apply(Batch{Del: []Edge{{From: 1, To: 0}, {From: 0, To: 1}}})
	if res.MissingDeletes != 1 {
		t.Fatalf("MissingDeletes = %d, want 1", res.MissingDeletes)
	}
	if ng.NumEdges() != 0 {
		t.Fatalf("E = %d, want 0", ng.NumEdges())
	}
}

func TestApplyParallelEdgeDeleteConsistency(t *testing.T) {
	g := MustBuild(2, []Edge{{0, 1, 0.3}, {0, 1, 0.7}})
	ng, res := g.Apply(Batch{Del: []Edge{{From: 0, To: 1}}})
	if len(res.Deleted) != 1 {
		t.Fatalf("deleted %d edges", len(res.Deleted))
	}
	// Whichever instance was removed, CSR and CSC must agree on the
	// survivor's weight.
	_, outW := ng.OutNeighbors(0)
	_, inW := ng.InNeighbors(1)
	if len(outW) != 1 || len(inW) != 1 || outW[0] != inW[0] {
		t.Fatalf("CSR/CSC disagree: out=%v in=%v", outW, inW)
	}
	if res.Deleted[0].Weight+outW[0] != 1.0 {
		t.Fatalf("deleted %v survivor %v: not the original pair", res.Deleted[0].Weight, outW[0])
	}
}

func TestApplyGrowsVertexSet(t *testing.T) {
	g := MustBuild(2, []Edge{{0, 1, 1}})
	ng, _ := g.Apply(Batch{Add: []Edge{{5, 1, 1}}})
	if ng.NumVertices() != 6 {
		t.Fatalf("V = %d, want 6", ng.NumVertices())
	}
	if ng.OutDegree(5) != 1 || ng.InDegree(1) != 2 {
		t.Fatal("degrees wrong after growth")
	}
}

func TestApplyAddAndDeleteSameBatch(t *testing.T) {
	// Deletes refer to the pre-batch graph: deleting an edge added in the
	// same batch must not match.
	g := MustBuild(2, []Edge{})
	ng, res := g.Apply(Batch{Add: []Edge{{0, 1, 1}}, Del: []Edge{{From: 0, To: 1}}})
	if res.MissingDeletes != 1 {
		t.Fatalf("MissingDeletes = %d, want 1 (delete of same-batch add)", res.MissingDeletes)
	}
	if !ng.HasEdge(0, 1) {
		t.Fatal("added edge was deleted by same-batch delete")
	}
}

func TestApplySelfLoop(t *testing.T) {
	g := MustBuild(2, nil)
	ng, _ := g.Apply(Batch{Add: []Edge{{1, 1, 4}}})
	if !ng.HasEdge(1, 1) || ng.InDegree(1) != 1 || ng.OutDegree(1) != 1 {
		t.Fatal("self loop mishandled")
	}
	ng2, res := ng.Apply(Batch{Del: []Edge{{From: 1, To: 1}}})
	if ng2.NumEdges() != 0 || len(res.Deleted) != 1 || res.Deleted[0].Weight != 4 {
		t.Fatal("self loop delete mishandled")
	}
}

// referenceApply recomputes the mutated edge multiset naively; it also
// returns the edges it removed.
func referenceApply(n int, edges []Edge, batch Batch) (int, []Edge, []Edge) {
	var removed []Edge
	remaining := append([]Edge(nil), edges...)
	for _, d := range batch.Del {
		// The graph removes the smallest-weight instance among parallel
		// edges (deterministic (target, weight) ordering).
		best := -1
		for i, e := range remaining {
			if e.From == d.From && e.To == d.To {
				if best == -1 || e.Weight < remaining[best].Weight {
					best = i
				}
			}
		}
		if best >= 0 {
			removed = append(removed, remaining[best])
			remaining = append(remaining[:best], remaining[best+1:]...)
		}
	}
	remaining = append(remaining, batch.Add...)
	for _, e := range batch.Add {
		if int(e.From) >= n {
			n = int(e.From) + 1
		}
		if int(e.To) >= n {
			n = int(e.To) + 1
		}
	}
	return n, remaining, removed
}

// Property: Apply equals rebuilding from the mutated edge multiset.
func TestQuickApplyMatchesRebuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 2
		ne := rng.Intn(120)
		edges := make([]Edge, ne)
		for i := range edges {
			edges[i] = Edge{
				From:   VertexID(rng.Intn(n)),
				To:     VertexID(rng.Intn(n)),
				Weight: float64(rng.Intn(50)) / 4,
			}
		}
		g := MustBuild(n, edges)

		var batch Batch
		for i := 0; i < rng.Intn(20); i++ {
			batch.Add = append(batch.Add, Edge{
				From:   VertexID(rng.Intn(n + 3)),
				To:     VertexID(rng.Intn(n + 3)),
				Weight: float64(rng.Intn(50)) / 4,
			})
		}
		for i := 0; i < rng.Intn(20); i++ {
			if len(edges) > 0 && rng.Intn(2) == 0 {
				e := edges[rng.Intn(len(edges))]
				batch.Del = append(batch.Del, Edge{From: e.From, To: e.To})
			} else {
				batch.Del = append(batch.Del, Edge{From: VertexID(rng.Intn(n)), To: VertexID(rng.Intn(n))})
			}
		}

		ng, _ := g.Apply(batch)
		wantN, wantEdges, _ := referenceApply(n, edges, batch)
		if ng.NumVertices() != wantN {
			return false
		}
		got := edgesOf(ng)
		sortEdges(got)
		sortEdges(wantEdges)
		if len(got) != len(wantEdges) {
			return false
		}
		for i := range got {
			if got[i] != wantEdges[i] {
				return false
			}
		}
		// CSC must be the exact transpose of CSR.
		var inEdges []Edge
		for v := 0; v < ng.NumVertices(); v++ {
			ts, ws := ng.InNeighbors(VertexID(v))
			for i, u := range ts {
				inEdges = append(inEdges, Edge{From: u, To: VertexID(v), Weight: ws[i]})
			}
		}
		sortEdges(inEdges)
		for i := range got {
			if got[i] != inEdges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := MustBuild(4, []Edge{{0, 1, 0.5}, {1, 2, 1.5}, {3, 0, 2}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := edgesOf(g), edgesOf(g2)
	sortEdges(a)
	sortEdges(b)
	if !reflect.DeepEqual(a, b) || g2.NumVertices() != 4 {
		t.Fatalf("round trip mismatch: %v vs %v (V=%d)", a, b, g2.NumVertices())
	}
}

func TestReadEdgeListDefaultsAndErrors(t *testing.T) {
	g, err := ReadEdgeList(bytes.NewBufferString("0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 1 {
		t.Fatal("default weight not 1")
	}
	if _, err := ReadEdgeList(bytes.NewBufferString("0\n")); err == nil {
		t.Fatal("accepted malformed line")
	}
	if _, err := ReadEdgeList(bytes.NewBufferString("a b\n")); err == nil {
		t.Fatal("accepted non-numeric ids")
	}
}
