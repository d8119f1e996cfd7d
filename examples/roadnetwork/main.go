// Roadnetwork: single-source shortest paths on a mutating road grid —
// closures (deletions) and new roads (additions) stream in. It runs the
// same workload through GraphBolt's witness-checked min refinement and
// the KickStarter-style dependence-tree engine, demonstrating the
// §5.4(B) comparison: both stay correct, KickStarter does less work
// because it gives up BSP semantics that SSSP does not need. GraphBolt
// re-pulls a vertex only when a lost contribution may have been its
// shortest incoming path.
package main

import (
	"fmt"
	"log"
	"math"

	graphbolt "repro"
	"repro/internal/gen"
	"repro/internal/graph"
)

const (
	rows, cols = 40, 40
	depot      = graphbolt.VertexID(0)
)

func main() {
	// A city grid with a few diagonal highways, travel times 1–10.
	edges := gen.Grid(rows, cols, gen.WeightSmallInt)
	r := gen.NewRNG(5)
	for i := 0; i < 60; i++ {
		a := graphbolt.VertexID(r.Intn(rows * cols))
		b := graphbolt.VertexID(r.Intn(rows * cols))
		edges = append(edges, graphbolt.Edge{From: a, To: b, Weight: float64(r.Intn(4) + 1)})
	}
	g, err := graphbolt.BuildGraph(rows*cols, edges)
	if err != nil {
		log.Fatal(err)
	}

	gb, err := graphbolt.NewEngine[float64, float64](g, graphbolt.NewSSSP(depot), graphbolt.Options{
		MaxIterations: 4 * rows * cols,
		Horizon:       64,
	})
	if err != nil {
		log.Fatal(err)
	}
	gb.Run()
	ks := graphbolt.NewKickStarterSSSP(g, depot)
	fmt.Printf("road grid %dx%d, %d segments; reachable from depot: %d\n",
		rows, cols, g.NumEdges(), reachable(gb.Values()))

	for round := 1; round <= 5; round++ {
		batch := makeTraffic(gb.Graph(), r)
		gbStats, err := gb.ApplyBatch(batch)
		if err != nil {
			log.Fatal(err)
		}
		ksBefore := ks.EdgeComputations
		ks.ApplyBatch(batch)

		fmt.Printf("\nround %d: %d closures, %d new roads\n", round, len(batch.Del), len(batch.Add))
		fmt.Printf("  GraphBolt:   %8d edge computations (BSP levels, witness-checked min)\n",
			gbStats.EdgeComputations)
		fmt.Printf("  KickStarter: %8d edge computations (trimmed dependence tree)\n",
			ks.EdgeComputations-ksBefore)

		if diff := compare(gb.Values(), ks.Distances()); diff {
			log.Fatal("engines disagree on distances")
		}
		fmt.Printf("  both engines agree; reachable intersections: %d\n", reachable(gb.Values()))
	}
}

// makeTraffic closes existing segments and opens new ones.
func makeTraffic(g *graphbolt.Graph, r *gen.RNG) graphbolt.Batch {
	var b graphbolt.Batch
	all := g.Edges(nil)
	for i := 0; i < 25 && len(all) > 0; i++ {
		e := all[r.Intn(len(all))]
		b.Del = append(b.Del, graph.Edge{From: e.From, To: e.To})
	}
	for i := 0; i < 15; i++ {
		b.Add = append(b.Add, graphbolt.Edge{
			From:   graphbolt.VertexID(r.Intn(rows * cols)),
			To:     graphbolt.VertexID(r.Intn(rows * cols)),
			Weight: float64(r.Intn(9) + 1),
		})
	}
	return b
}

func reachable(dists []float64) int {
	n := 0
	for _, d := range dists {
		if !math.IsInf(d, 1) {
			n++
		}
	}
	return n
}

func compare(a, b []float64) (differs bool) {
	for v := range a {
		if a[v] != b[v] && !(math.IsInf(a[v], 1) && math.IsInf(b[v], 1)) {
			fmt.Printf("  MISMATCH at %d: GraphBolt %v vs KickStarter %v\n", v, a[v], b[v])
			return true
		}
	}
	return false
}
