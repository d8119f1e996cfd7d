package graph

import (
	"fmt"
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

func BenchmarkBuild(b *testing.B) {
	edges := benchEdges(10000, 100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustBuild(10000, edges)
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
