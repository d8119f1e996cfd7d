// Package exps contains one driver per table and figure of the paper's
// evaluation (§5). Each driver builds its workload from the deterministic
// synthetic generators (standing in for the paper's datasets, see
// DESIGN.md §2), runs the systems under comparison, and prints the same
// rows/series the paper reports. The drivers are shared by the
// graphbolt-bench command and the root-level testing.B benchmarks.
package exps

import (
	"fmt"
	"io"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stream"
)

// Config parameterizes every experiment.
type Config struct {
	// Scale multiplies the default workload sizes; 1.0 targets a few
	// minutes for the full suite on a laptop, tests use ~0.05.
	Scale float64
	// Iterations per run; the paper uses 10.
	Iterations int
	// Seed drives all generators.
	Seed uint64
	// Tolerance gates selective scheduling in the performance
	// experiments (§4.2: "comparing change with tolerance"): value
	// changes below it neither propagate nor count as work. Without one,
	// float-level perturbations from a single mutated edge spread across
	// the whole graph and incremental processing degenerates to full
	// reprocessing. ≤ 0 selects the default 1e-4.
	Tolerance float64
	// Out receives the report.
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Iterations <= 0 {
		c.Iterations = 10
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 1e-4
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// scaled rounds s·x up to at least 4.
func (c Config) scaled(x int) int {
	v := int(float64(x) * c.Scale)
	if v < 4 {
		v = 4
	}
	return v
}

// GraphSpec is one of the evaluation's input graphs (Table 2),
// down-scaled: the RMAT generator preserves the skew that drives the
// paper's results, not the absolute sizes.
type GraphSpec struct {
	Name     string
	Vertices int
	Edges    int
}

// Graphs mirrors Table 2's six inputs at laptop scale (multiplied by
// Config.Scale).
func (c Config) Graphs() []GraphSpec {
	return []GraphSpec{
		{"WK", c.scaled(8192), c.scaled(131072)},
		{"UK", c.scaled(16384), c.scaled(196608)},
		{"TW", c.scaled(16384), c.scaled(262144)},
		{"TT", c.scaled(24576), c.scaled(327680)},
		{"FT", c.scaled(32768), c.scaled(393216)},
	}
}

// YahooGraph is the largest input (Table 2's YH), used by Tables 6–7.
func (c Config) YahooGraph() GraphSpec {
	return GraphSpec{"YH", c.scaled(65536), c.scaled(786432)}
}

// NewStream builds the §5.1 evaluation stream for a graph spec: half the
// edges loaded, the rest streamed with deletions mixed in.
func (c Config) NewStream(spec GraphSpec, batchSize, numBatches int) (*stream.Stream, error) {
	return c.NewStreamOpts(spec, batchSize, numBatches, gen.WeightUniform, 0.25)
}

// NewStreamOpts is NewStream with explicit weighting and deletion mix
// (Figure 9 uses integer weights and an additions-only variant).
func (c Config) NewStreamOpts(spec GraphSpec, batchSize, numBatches int, w gen.Weighting, delFrac float64) (*stream.Stream, error) {
	edges := gen.RMAT(c.Seed^uint64(len(spec.Name))^uint64(spec.Edges), spec.Vertices, spec.Edges, w)
	return stream.FromEdges(spec.Vertices, edges, stream.Config{
		LoadFraction:   0.5,
		BatchSize:      batchSize,
		NumBatches:     numBatches,
		DeleteFraction: delFrac,
		Seed:           c.Seed,
	})
}

// Runner abstracts a typed engine so drivers can sweep algorithms.
type Runner interface {
	Run() core.Stats
	ApplyBatch(graph.Batch) (core.Stats, error)
	HistoryBytes() int64
}

// MustApply applies a batch that is valid by construction; the drivers
// generate their own workloads, so an error here is a bug.
func MustApply(r Runner, b graph.Batch) core.Stats {
	st, err := r.ApplyBatch(b)
	if err != nil {
		panic(err)
	}
	return st
}

// Algo names an algorithm and knows how to build an engine for it.
type Algo struct {
	Name  string
	Build func(g *graph.Graph, mode core.Mode, opts core.Options) Runner
}

func wrap[V, A any](p core.Program[V, A]) func(*graph.Graph, core.Mode, core.Options) Runner {
	return func(g *graph.Graph, mode core.Mode, opts core.Options) Runner {
		opts.Mode = mode
		e, err := core.NewEngine[V, A](g, p, opts)
		if err != nil {
			panic(err)
		}
		return e
	}
}

// seedsFor picks deterministic seed vertices for the semi-supervised
// algorithms.
func seedsFor(n int, k int, seed uint64) []core.VertexID {
	r := gen.NewRNG(seed)
	out := make([]core.VertexID, 0, k)
	seen := map[int]bool{}
	for len(out) < k && len(seen) < n {
		v := r.Intn(n)
		if !seen[v] {
			seen[v] = true
			out = append(out, core.VertexID(v))
		}
	}
	return out
}

// EngineAlgos returns the five engine-driven algorithms of the
// evaluation (TC runs through its dedicated incremental counter).
func (c Config) EngineAlgos(n int) []Algo {
	pos := seedsFor(n, 8, c.Seed+1)
	neg := seedsFor(n, 8, c.Seed+2)
	lpSeeds := map[core.VertexID]int{}
	for i, v := range seedsFor(n, 12, c.Seed+3) {
		lpSeeds[v] = i % 3
	}
	pr := algorithms.NewPageRank()
	pr.Tolerance = c.Tolerance
	bp := algorithms.NewBeliefProp(3)
	bp.Tolerance = c.Tolerance
	cf := algorithms.NewCollabFilter(4)
	cf.Tolerance = c.Tolerance
	coem := algorithms.NewCoEM(pos, neg)
	coem.Tolerance = c.Tolerance
	lp := algorithms.NewLabelProp(3, lpSeeds)
	lp.Tolerance = c.Tolerance
	return []Algo{
		{"PR", wrap[float64, float64](pr)},
		{"BP", wrap[[]float64, []float64](bp)},
		{"CF", wrap[[]float64, algorithms.CFAgg](cf)},
		{"CoEM", wrap[float64, algorithms.CoEMAgg](coem)},
		{"LP", wrap[[]float64, []float64](lp)},
	}
}

// MutationResult is one measured ApplyBatch.
type MutationResult struct {
	Duration time.Duration
	Stats    core.Stats
}

// MeasureMutation runs an initial computation, then applies and times
// one mutation batch.
func MeasureMutation(a Algo, g *graph.Graph, mode core.Mode, opts core.Options, batch graph.Batch) MutationResult {
	eng := a.Build(g, mode, opts)
	eng.Run()
	start := time.Now()
	st := MustApply(eng, batch)
	return MutationResult{Duration: time.Since(start), Stats: st}
}

// TakeBatch concatenates stream batches until size mutations are
// gathered (the drivers sweep batch sizes larger than the stream's
// granularity), then trims to size keeping the gathered add/delete mix:
// ⌈size·|Del|/total⌉ deletions, additions for the rest.
func TakeBatch(s *stream.Stream, size int) graph.Batch {
	var b graph.Batch
	for _, sb := range s.Batches {
		if len(b.Add)+len(b.Del) >= size {
			break
		}
		b.Add = append(b.Add, sb.Add...)
		b.Del = append(b.Del, sb.Del...)
	}
	if total := len(b.Add) + len(b.Del); total > size {
		del := (size*len(b.Del) + total - 1) / total
		b.Del = b.Del[:del]
		b.Add = b.Add[:size-del]
	}
	return b
}
