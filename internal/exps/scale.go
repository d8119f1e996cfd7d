package exps

import (
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/gen"
	"repro/internal/graph"
)

// ScaleRow is one cell of the scale experiment, for one batch size at
// one |V|: the median time of graph.Apply called alone on the cell's
// batches, and of graph.Apply and the rest of ApplyBatch (refinement and
// publish) inside an engine applying the same batches.
// Alone, graph.Apply finds the graph in cache; inside ApplyBatch, after
// the previous batch's refinement, it does not.
type ScaleRow struct {
	Vertices, Batch int
	Alone           time.Duration
	GraphApply      time.Duration
	Rest            time.Duration
}

// scaleBatches is the number of batches each cell takes the median of.
const scaleBatches = 30

// ScaleRows measures every cell of the scale experiment: SSSP on a
// uniform graph of average degree 8 at |V| = 2^14, 2^17 and 2^20 (times
// Config.Scale), fed 1-edge and 100-edge batches (a quarter deletions of
// loaded edges). A uniform graph keeps the touched lists' length
// constant, so what grows with |V| is a term proportional to |V| or the
// cache misses of a larger graph. The split inside ApplyBatch comes from
// the engine's own flight phases: "graph_apply" inside "apply_batch".
func ScaleRows(cfg Config) []ScaleRow {
	cfg = cfg.withDefaults()
	var rows []ScaleRow
	for _, exp := range []int{14, 17, 20} {
		g, batches := scaleGraph(cfg, exp)
		for _, size := range []int{1, 100} {
			rows = append(rows, scaleCell(cfg, g, batches(size)))
		}
	}
	return rows
}

// scaleGraph builds the experiment's graph at |V| = 2^exp times
// Config.Scale, and the generator of its batches: each call returns
// scaleBatches batches of size edges, a quarter of them deletions of
// loaded edges.
func scaleGraph(cfg Config, exp int) (*graph.Graph, func(size int) []graph.Batch) {
	n := cfg.scaled(1 << exp)
	r := gen.NewRNG(cfg.Seed + uint64(exp))
	edges := gen.Uniform(cfg.Seed^uint64(n), n, 8*n, gen.WeightUniform)
	batches := func(size int) []graph.Batch {
		var bs []graph.Batch
		for i := 0; i < scaleBatches; i++ {
			var b graph.Batch
			for j := 0; j < size; j++ {
				if j%4 == 3 {
					e := edges[r.Intn(len(edges))]
					b.Del = append(b.Del, graph.Edge{From: e.From, To: e.To})
				} else {
					b.Add = append(b.Add, graph.Edge{
						From: graph.VertexID(r.Intn(n)), To: graph.VertexID(r.Intn(n)), Weight: 1 + r.Float64(),
					})
				}
			}
			bs = append(bs, b)
		}
		return bs
	}
	return graph.MustBuild(n, edges), batches
}

// scaleCell runs one cell: the batches through graph.Apply alone, then
// through a fresh engine on g, each under its own trace so its phases can
// be told apart.
func scaleCell(cfg Config, g *graph.Graph, batches []graph.Batch) ScaleRow {
	// Each timed loop starts after a collection, so the garbage of the
	// build or the initial run is not marked while it runs. Alone, every
	// batch is applied and then undone, ten times over, so the chain runs
	// long enough for the allocator to reach the steady state of a server
	// applying batch after batch, while the graph stays the cell's graph.
	runtime.GC()
	var alone []time.Duration
	h := g
	for round := 0; round < 10; round++ {
		for _, b := range batches {
			var d time.Duration
			h, d = applyAlone(h, b)
			alone = append(alone, d)
		}
	}

	rec := flight.New(flight.Options{Depth: 64})
	eng, err := core.NewEngine[float64, float64](g, algorithms.NewSSSP(0),
		core.Options{MaxIterations: cfg.Iterations, Flight: rec})
	if err != nil {
		panic(err)
	}
	eng.Run()
	runtime.GC()
	var applies, rests []time.Duration
	for i, b := range batches {
		trace := uint64(i + 1)
		rec.BeginApply(trace)
		MustApply(eng, b)
		rec.EndApply()
		var apply, total time.Duration
		for _, ev := range rec.Snapshot() {
			if ev.Kind != flight.KindPhase || ev.Trace != trace {
				continue
			}
			switch name, _, _ := strings.Cut(strings.TrimPrefix(ev.Note(), "name="), " "); name {
			case "graph_apply":
				apply = time.Duration(ev.A)
			case "apply_batch":
				total = time.Duration(ev.A)
			}
		}
		applies = append(applies, apply)
		rests = append(rests, total-apply)
	}
	return ScaleRow{
		Vertices:   g.NumVertices(),
		Batch:      len(batches[0].Add) + len(batches[0].Del),
		Alone:      median(alone),
		GraphApply: median(applies),
		Rest:       median(rests),
	}
}

// applyAlone times h.Apply(b) and returns the graph after b is undone,
// with the time.
func applyAlone(h *graph.Graph, b graph.Batch) (*graph.Graph, time.Duration) {
	start := time.Now()
	next, res := h.Apply(b)
	d := time.Since(start)
	undo := graph.Batch{Add: res.Deleted}
	for _, e := range b.Add {
		undo.Del = append(undo.Del, graph.Edge{From: e.From, To: e.To})
	}
	h, _ = next.Apply(undo)
	return h, d
}

func median(ds []time.Duration) time.Duration {
	ds = slices.Clone(ds)
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// Scale prints ScaleRows: ROADMAP item 7's first step, the terms of a
// small batch that grow with the graph rather than with the batch.
func Scale(cfg Config) error {
	cfg = cfg.withDefaults()
	cfg.printf("Scale: median per-batch time, SSSP on a uniform graph of average degree 8 (%d batches per row)\n", scaleBatches)
	cfg.printf("%9s %6s %12s %12s %12s\n", "", "", "graph.Apply", "ApplyBatch:", "")
	cfg.printf("%9s %6s %12s %12s %12s\n", "V", "batch", "alone(us)", "graph(us)", "rest(us)")
	for _, row := range ScaleRows(cfg) {
		cfg.printf("%9d %6d %12.1f %12.1f %12.1f\n", row.Vertices, row.Batch,
			float64(row.Alone)/1e3, float64(row.GraphApply)/1e3, float64(row.Rest)/1e3)
	}
	return nil
}
