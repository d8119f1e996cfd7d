package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchEdges(n, m int) []Edge {
	edges := make([]Edge, m)
	state := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		return state * 0x2545F4914F6CDD1D
	}
	for i := range edges {
		edges[i] = Edge{
			From:   VertexID(next() % uint64(n)),
			To:     VertexID(next() % uint64(n)),
			Weight: float64(next()%100) / 10,
		}
	}
	return edges
}

// rmatEdges draws m edges over n vertices with rmatVertex's skew, so a
// few hubs hold long lists, with benchEdges' weights.
func rmatEdges(n, m int) []Edge {
	rng := rand.New(rand.NewSource(1))
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{rmatVertex(rng, n), rmatVertex(rng, n), float64(rng.Intn(100)) / 10}
	}
	return edges
}

// BenchmarkBuild places uniform edges, and RMAT-skewed ones at average
// degree 16, where the hub lists are long and hold parallel edges.
func BenchmarkBuild(b *testing.B) {
	for _, bc := range []struct {
		name  string
		n     int
		edges []Edge
	}{
		{"uniform/E=100k", 10000, benchEdges(10000, 100000)},
		{"rmat/E=100k", 1 << 13, rmatEdges(1<<13, 100_000)},
		{"rmat/E=1000k", 1 << 16, rmatEdges(1<<16, 1_000_000)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MustBuild(bc.n, bc.edges)
			}
		})
	}
}

func BenchmarkApplyBatch1K(b *testing.B) {
	edges := benchEdges(10000, 100000)
	g := MustBuild(10000, edges)
	extra := benchEdges(10000, 1000)
	var batch Batch
	batch.Add = extra[:750]
	for _, e := range edges[:250] {
		batch.Del = append(batch.Del, Edge{From: e.From, To: e.To})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Apply(batch)
	}
}

// BenchmarkApplySmallBatch is the serving shape: a 20-edge batch (15
// additions, 5 deletions) on graphs of two sizes. ns/op and B/op must
// not scale with |E|.
func BenchmarkApplySmallBatch(b *testing.B) {
	for _, m := range []int{100_000, 400_000} {
		b.Run(fmt.Sprintf("E=%dk", m/1000), func(b *testing.B) {
			g, batch := smallBatchCase(m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Apply(batch)
			}
		})
	}
}

func BenchmarkNeighborScan(b *testing.B) {
	g := MustBuild(10000, benchEdges(10000, 100000))
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		for v := 0; v < g.NumVertices(); v++ {
			_, ws := g.OutNeighbors(VertexID(v))
			for _, w := range ws {
				sink += w
			}
		}
	}
	_ = sink
}

func BenchmarkHasEdge(b *testing.B) {
	g := MustBuild(10000, benchEdges(10000, 100000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HasEdge(VertexID(i%10000), VertexID((i*7)%10000))
	}
}
