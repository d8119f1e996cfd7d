package graph

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// multigraph draws m edges over n vertices: endpoints RMAT-skewed, so a
// few hubs hold long lists and many vertices stay isolated; runs of
// parallel edges with equal and distinct weights, +0 and -0 among them;
// and self loops. The runs are scattered through the list, so no list
// arrives in order.
func multigraph(seed int64, n, m int) []Edge {
	if n == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	weights := []float64{0, math.Copysign(0, -1), 1, 1, 2.5, -3, 0.125}
	weight := func() float64 {
		if rng.Intn(4) == 0 {
			return rng.NormFloat64()
		}
		return weights[rng.Intn(len(weights))]
	}
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		u, v := rmatVertex(rng, n), rmatVertex(rng, n)
		switch rng.Intn(8) {
		case 0:
			v = u
		case 1, 2:
			for k := rng.Intn(6); k > 0 && len(edges) < m-1; k-- {
				edges = append(edges, Edge{u, v, weight()})
			}
		}
		edges = append(edges, Edge{u, v, weight()})
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

// rmatVertex draws one endpoint with RMAT's marginal skew: each bit is
// set with probability 0.24, the share of quadrants c and d under
// a/b/c/d = 0.57/0.19/0.19/0.05.
func rmatVertex(rng *rand.Rand, n int) VertexID {
	var v int
	for bit := 1; bit < n; bit <<= 1 {
		if rng.Float64() < 0.24 {
			v |= bit
		}
	}
	return VertexID(v % n)
}

// requireCanonical fails unless every list of g equals a reference built
// with sort.SliceStable from edges (out-lists by (target, weight),
// in-lists by (source, weight), ties in input order), weights compared
// bit for bit, and unless the in-lists are the out-lists' transpose, copy
// for copy.
func requireCanonical(t *testing.T, g *Graph, n int, edges []Edge, what string) {
	t.Helper()
	if g.NumVertices() != n || g.NumEdges() != int64(len(edges)) {
		t.Fatalf("%s: V=%d E=%d, want %d/%d", what, g.NumVertices(), g.NumEdges(), n, len(edges))
	}
	out, in := make([][]Edge, n), make([][]Edge, n)
	for _, e := range edges {
		out[e.From] = append(out[e.From], e)
		in[e.To] = append(in[e.To], e)
	}
	transposed := make([][]Edge, n)
	for v := 0; v < n; v++ {
		sort.SliceStable(out[v], func(i, j int) bool {
			a, b := out[v][i], out[v][j]
			return a.To < b.To || a.To == b.To && a.Weight < b.Weight
		})
		sort.SliceStable(in[v], func(i, j int) bool {
			a, b := in[v][i], in[v][j]
			return a.From < b.From || a.From == b.From && a.Weight < b.Weight
		})
		ts, ws := g.OutNeighbors(VertexID(v))
		requireList(t, ts, ws, out[v], func(e Edge) VertexID { return e.To }, what, "out", v)
		for i, u := range ts {
			transposed[u] = append(transposed[u], Edge{VertexID(v), u, ws[i]})
		}
	}
	for v := 0; v < n; v++ {
		ts, ws := g.InNeighbors(VertexID(v))
		from := func(e Edge) VertexID { return e.From }
		requireList(t, ts, ws, in[v], from, what, "in", v)
		requireList(t, ts, ws, transposed[v], from, what, "transposed out", v)
	}
}

func requireList(t *testing.T, ts []VertexID, ws []float64, want []Edge, id func(Edge) VertexID, what, dir string, v int) {
	t.Helper()
	ok := len(ts) == len(want) && len(ws) == len(want)
	for i := 0; ok && i < len(want); i++ {
		ok = ts[i] == id(want[i]) && math.Float64bits(ws[i]) == math.Float64bits(want[i].Weight)
	}
	if !ok {
		t.Fatalf("%s: %s(%d) = %v %v, want %v", what, dir, v, ts, ws, want)
	}
}

// checkBuild builds m random edges over n vertices, checks the result
// against the reference, and checks that Build(n, g.Edges(nil))
// reproduces it list for list.
func checkBuild(t *testing.T, seed int64, n, m int) {
	t.Helper()
	edges := multigraph(seed, n, m)
	g := MustBuild(n, edges)
	requireCanonical(t, g, n, edges, "built")
	requireCanonical(t, MustBuild(n, g.Edges(nil)), n, edges, "rebuilt")
}

// TestBuildMatchesReference: Build's counting sorts give every list the
// order a comparison sort by (neighbour, weight) gives, make the in-lists
// the exact transpose of the out-lists, and rebuild a listed graph bit
// for bit.
func TestBuildMatchesReference(t *testing.T) {
	for _, c := range []struct{ n, m int }{
		{0, 0}, {1, 0}, {1, 7}, {2, 40}, {17, 300},
		{pageSize + 1, 50}, {2*pageSize + 3, 4000}, {5000, 20000},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			checkBuild(t, seed, c.n, c.m)
		}
	}
}

func FuzzBuild(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(0))
	f.Add(int64(2), uint16(1), uint16(9))
	f.Add(int64(3), uint16(17), uint16(300))
	f.Add(int64(4), uint16(2*pageSize+3), uint16(4000))
	f.Fuzz(func(t *testing.T, seed int64, n, m uint16) {
		checkBuild(t, seed, int(n%2048), int(m%8192))
	})
}
