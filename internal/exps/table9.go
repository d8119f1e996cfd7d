package exps

import (
	"sort"

	"repro/internal/algorithms"
	"repro/internal/core"
)

// Table9 estimates the memory increase GraphBolt's dependency tracking
// adds over GB-Reset. Following the paper, the measurement is the
// worst-case first batch of processing: the full (unpruned-horizon)
// dependency store after the initial run, relative to the baseline
// footprint both systems share (graph structure + per-vertex
// value/aggregate arrays). TC is reported as its dynamic adjacency
// relative to the graph snapshot.
func Table9(cfg Config) error {
	cfg = cfg.withDefaults()
	cfg.printf("Table 9: memory increase of GraphBolt over GB-Reset (dependency store / baseline)\n")
	cfg.printf("%-5s %-5s %14s %14s %9s\n", "algo", "graph", "baseline(B)", "history(B)", "increase")
	for _, spec := range cfg.Graphs() {
		s, err := cfg.NewStream(spec, 100, 1)
		if err != nil {
			return err
		}
		g := s.Base
		n := int64(g.NumVertices())
		m := g.NumEdges()
		// Shared baseline: both adjacency directions as the graph
		// stores them (graph.Graph.Bytes) plus two value arrays and one
		// aggregate array per vertex.
		graphBytes := g.Bytes()

		perAlgo := []struct {
			name     string
			valBytes int64 // per-vertex value + aggregate footprint
			algo     Algo
		}{
			{"PR", 3 * 8, Algo{"PR", wrap[float64, float64](algorithms.NewPageRank())}},
			{"BP", 3 * (24 + 3*8), Algo{"BP", wrap[[]float64, []float64](algorithms.NewBeliefProp(3))}},
			{"CoEM", 2*8 + 16, Algo{"CoEM", wrap[float64, algorithms.CoEMAgg](algorithms.NewCoEM(
				seedsFor(int(n), 8, cfg.Seed+1), seedsFor(int(n), 8, cfg.Seed+2)))}},
			{"LP", 3 * (24 + 3*8), Algo{"LP", wrap[[]float64, []float64](algorithms.NewLabelProp(3, map[core.VertexID]int{}))}},
			{"CF", 2*(24+4*8) + (48 + 8*20), Algo{"CF", wrap[[]float64, algorithms.CFAgg](algorithms.NewCollabFilter(4))}},
		}
		for _, pa := range perAlgo {
			eng := pa.algo.Build(g, core.ModeGraphBolt, core.Options{MaxIterations: cfg.Iterations})
			eng.Run()
			baseline := graphBytes + n*pa.valBytes
			hist := eng.HistoryBytes()
			cfg.printf("%-5s %-5s %14d %14d %8.2f%%\n",
				pa.name, spec.Name, baseline, hist, 100*float64(hist)/float64(baseline))
		}
		// TC: dynamic multiset adjacency (both directions) vs the snapshot.
		// Go map overhead ≈ 48B/bucket-ish; estimate 24B per directed
		// edge entry per direction plus per-vertex headers.
		tcExtra := 2*(m*24) + 2*(n*48)
		cfg.printf("%-5s %-5s %14d %14d %8.2f%%\n",
			"TC", spec.Name, graphBytes, tcExtra, 100*float64(tcExtra)/float64(graphBytes))
	}
	return nil
}

// Experiment names a driver for the CLI and benchmarks.
type Experiment struct {
	Name string
	Desc string
	Run  func(Config) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "naive-reuse error growth (LP)", Table1},
		{"figure2", "5-vertex naive-vs-correct walk-through", Figure2},
		{"figure4", "value stabilization across iterations", Figure4},
		{"table5", "execution time: Ligra vs GB-Reset vs GraphBolt", Table5},
		{"figure6", "edge-computation ratio GraphBolt/GB-Reset", Figure6},
		{"table6", "parallelism study on YH", Table6},
		{"table7", "GraphBolt edge computations on YH", Table7},
		{"figure7", "batch-size sweep 1..1M", Figure7},
		{"table8", "Hi vs Lo mutation workloads", Table8},
		{"figure8", "PageRank vs Differential Dataflow", Figure8},
		{"figure8b", "single-edge mutation variance vs DD", Figure8b},
		{"figure9", "SSSP: KickStarter vs GraphBolt vs DD", Figure9},
		{"table9", "memory overhead of dependency tracking", Table9},
		{"ablation", "design-choice ablations: pruning, delta vs R+P", Ablation},
		{"tagfrac", "tag-propagation reset fraction vs actual change (§2.2)", TagFraction},
		{"scale", "small-batch graph.Apply vs the rest of ApplyBatch as |V| grows", Scale},
	}
}

// ByName returns the named experiment.
func ByName(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Names lists experiment names sorted.
func Names() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}
