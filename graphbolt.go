// Package graphbolt is a Go implementation of GraphBolt
// (Mariappan & Vora, EuroSys 2019): dependency-driven synchronous
// processing of streaming graphs. It executes iterative graph algorithms
// under Bulk Synchronous Parallel semantics and keeps their results up
// to date across edge/vertex insertions and deletions by refining
// tracked aggregation values instead of recomputing — while guaranteeing
// the refined results equal a from-scratch run on the mutated graph.
//
// # Quick start
//
//	g, _ := graphbolt.BuildGraph(4, []graphbolt.Edge{{From: 0, To: 1, Weight: 1}})
//	eng, _ := graphbolt.NewEngine[float64, float64](g, graphbolt.NewPageRank(), graphbolt.Options{})
//	eng.Run()                                            // initial computation
//	eng.ApplyBatch(graphbolt.Batch{Add: []graphbolt.Edge{{From: 1, To: 2, Weight: 1}}})
//	ranks := eng.Values()                                // up to date for the new snapshot
//
// Values returns the value slice of the engine's atomically published
// ResultSnapshot: it is immutable, safe to read from any goroutine while
// later batches are applied, and shared by every reader of that
// generation — treat it as read-only, or call eng.CopyValues() (or
// snapshot.CopyValues()) for an owned slice.
//
// # Serving
//
// For concurrent workloads, wrap the engine in a Server: Submit feeds a
// single-writer ingest loop through a bounded, coalescing queue, while
// any number of goroutines read consistent snapshots lock-free:
//
//	srv := graphbolt.NewServer(eng, graphbolt.ServerOptions{})
//	srv.Submit(ctx, batch)                               // async ingest
//	s := srv.Snapshot()                                  // lock-free, immutable
//	_ = s.Values[3]                                      // consistent at s.Generation
//	srv.Close(ctx)                                       // drain and stop
//
// Algorithms are expressed against the incremental programming model of
// the paper (§3.3): an aggregation operator ⊕ with incremental
// counterparts ⊎ (Propagate), ⋃- (Retract) and ⋃△ (SourceDelta, once per
// source, then AddDeltas, once per target), and a vertex function ∮
// (Compute). Seven algorithms ship in the box:
// PageRank, Label Propagation, CoEM, Belief Propagation, Collaborative
// Filtering, SSSP/BFS/Connected Components (non-decomposable min), and
// an incremental Triangle Counter.
package graphbolt

import (
	"cmp"
	"io"
	"os"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kickstarter"
	"repro/internal/qcache"
	"repro/internal/stream"
	"repro/internal/wal"
)

// Graph re-exports the immutable graph snapshot type: out- and
// in-adjacency as copy-on-write pages, so Apply shares untouched pages.
type Graph = graph.Graph

// Edge is a directed weighted edge.
type Edge = graph.Edge

// Batch is an atomic set of edge insertions and deletions.
type Batch = graph.Batch

// VertexID identifies a vertex.
type VertexID = graph.VertexID

// Engine is the streaming BSP engine, generic over vertex value V and
// aggregation A.
type Engine[V, A any] = core.Engine[V, A]

// Program is the incremental programming model algorithms implement.
type Program[V, A any] = core.Program[V, A]

// DeltaProgram is single-pass change-in-contribution support: a
// source's delta computed once (SourceDelta) and folded into each
// target over its edge weights (AddDeltas).
type DeltaProgram[V, A any] = core.DeltaProgram[V, A]

// PullProgram is the witness check of non-decomposable aggregations
// (min/max).
type PullProgram[V, A any] = core.PullProgram[V, A]

// Options configures an Engine.
type Options = core.Options

// Mode selects the execution strategy.
type Mode = core.Mode

// Execution modes (see the paper's evaluation, §5.1).
const (
	// ModeGraphBolt is dependency-driven incremental processing.
	ModeGraphBolt = core.ModeGraphBolt
	// ModeGraphBoltRP forces retract+propagate transitive updates.
	ModeGraphBoltRP = core.ModeGraphBoltRP
	// ModeReset restarts with selective scheduling on mutation (GB-Reset).
	ModeReset = core.ModeReset
	// ModeLigra restarts with full recomputation on mutation.
	ModeLigra = core.ModeLigra
	// ModeNaive reuses values without refinement (incorrect; Table 1).
	ModeNaive = core.ModeNaive
)

// NewEngine constructs an engine for a program over a snapshot.
func NewEngine[V, A any](g *Graph, p Program[V, A], opts Options) (*Engine[V, A], error) {
	return core.NewEngine[V, A](g, p, opts)
}

// BuildGraph constructs a snapshot from an edge list with n vertices.
func BuildGraph(n int, edges []Edge) (*Graph, error) { return graph.Build(n, edges) }

// LoadGraph reads a "from to [weight]" edge list.
func LoadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// LoadGraphFile reads an edge-list file from disk.
func LoadGraphFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadEdgeList(f)
}

// SaveGraph writes the snapshot as an edge list.
func SaveGraph(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// Algorithm constructors (Table 4 of the paper).
var (
	// NewPageRank returns damped PageRank (simple sum aggregation).
	NewPageRank = algorithms.NewPageRank
	// NewPersonalizedPageRank returns source-biased PageRank.
	NewPersonalizedPageRank = algorithms.NewPersonalizedPageRank
	// NewKatz returns Katz centrality (attenuated path counting).
	NewKatz = algorithms.NewKatz
	// NewLabelProp returns Label Propagation over F labels with seeds.
	NewLabelProp = algorithms.NewLabelProp
	// NewCoEM returns Co-Training Expectation Maximization.
	NewCoEM = algorithms.NewCoEM
	// NewBeliefProp returns loopy Belief Propagation (complex product).
	NewBeliefProp = algorithms.NewBeliefProp
	// NewCollabFilter returns ALS collaborative filtering (complex pair).
	NewCollabFilter = algorithms.NewCollabFilter
	// NewSSSP returns single-source shortest paths (non-decomposable min).
	NewSSSP = algorithms.NewSSSP
	// NewBFS returns hop distances (non-decomposable min).
	NewBFS = algorithms.NewBFS
	// NewConnectedComponents returns min-label components.
	NewConnectedComponents = algorithms.NewConnectedComponents
	// NewTriangleCounter returns the incremental triangle counter.
	NewTriangleCounter = algorithms.NewTriangleCounter
	// NewKickStarterSSSP returns the KickStarter-style baseline engine.
	NewKickStarterSSSP = kickstarter.NewSSSP
)

// Algorithm value/aggregation type aliases, for spelling engine type
// parameters.
type (
	// PageRankEngine runs PageRank (V = A = float64).
	PageRankEngine = core.Engine[float64, float64]
	// CoEMAgg is CoEM's pair aggregate.
	CoEMAgg = algorithms.CoEMAgg
	// CFAgg is collaborative filtering's ⟨Gram matrix, vector⟩ aggregate.
	CFAgg = algorithms.CFAgg
)

// DurableEngine wraps an Engine with a write-ahead log and periodic
// checkpoints: every batch is journaled before its result is
// published, and OpenDurable recovers the exact pre-crash state from
// disk.
type DurableEngine[V, A any] = durable.Engine[V, A]

// DurableOptions configures journaling and checkpoint cadence.
type DurableOptions = durable.Options

// WALOptions configures the write-ahead log (sync policy).
type WALOptions = wal.Options

// SyncPolicy selects when journal appends reach stable storage.
type SyncPolicy = wal.SyncPolicy

// Journal sync policies.
const (
	// SyncEveryBatch fsyncs after every batch (no acknowledged batch is
	// ever lost; the default).
	SyncEveryBatch = wal.SyncEveryBatch
	// SyncInterval fsyncs at most once per WALOptions.Interval.
	SyncInterval = wal.SyncInterval
	// SyncNone leaves flushing to the OS (clean-shutdown durability only).
	SyncNone = wal.SyncNone
)

// OpenDurable wraps a freshly constructed engine with durability backed
// by dir, recovering any checkpoint and journal a previous process left
// there. See the durable package docs for the recovery protocol.
func OpenDurable[V, A any](eng *Engine[V, A], dir string, opts DurableOptions) (*DurableEngine[V, A], error) {
	return durable.Open(eng, dir, opts)
}

// Typed failure sentinels, for errors.Is.
var (
	// ErrSnapshotCorrupt reports an unreadable or bit-rotted checkpoint.
	ErrSnapshotCorrupt = core.ErrSnapshotCorrupt
	// ErrSnapshotVersion reports a checkpoint from an incompatible format.
	ErrSnapshotVersion = core.ErrSnapshotVersion
	// ErrInvalidEdge reports a rejected malformed edge (out-of-range
	// endpoint, NaN or infinite weight).
	ErrInvalidEdge = graph.ErrInvalidEdge
	// ErrInvalidBatch tags every batch validation failure — the error
	// names the offending edge's index and endpoints. A server rejects
	// such batches at dequeue rather than failing; the submitter's
	// ticket carries this sentinel.
	ErrInvalidBatch = graph.ErrInvalidBatch
	// ErrGenerationNotRetained reports a SnapshotAt/DiffSnapshots generation
	// outside the retained history window.
	ErrGenerationNotRetained = core.ErrGenerationNotRetained
)

// SnapshotDiff reports the vertices whose values changed between two
// retained generations, with before/after values and structural deltas.
type SnapshotDiff[V any] = core.SnapshotDiff[V]

// QueryCache is the per-generation cache memoizing top-k reads over
// immutable snapshots. Obtain one from Server.Cache; nil is valid and
// computes uncached.
type QueryCache = qcache.Cache

// VertexValue pairs a vertex with its value in some snapshot, as
// returned by TopK.
type VertexValue[V any] = qcache.VertexValue[V]

// TopK returns the k highest-valued vertices of the snapshot, ties
// broken by ascending vertex id, memoized in c.
func TopK[V cmp.Ordered](c *QueryCache, s *ResultSnapshot[V], k int) []VertexValue[V] {
	return qcache.TopK(c, s, k)
}

// Stream re-exports mutation-stream construction.
type Stream = stream.Stream

// StreamConfig configures stream construction.
type StreamConfig = stream.Config

// NewRMATStream generates an RMAT graph and splits it into a base
// snapshot plus mutation batches per the paper's methodology (§5.1).
func NewRMATStream(seed uint64, n, m int, cfg StreamConfig) (*Stream, error) {
	return stream.RMAT(seed, n, m, gen.WeightUniform, cfg)
}

// RMATEdges generates a deterministic skewed edge list.
func RMATEdges(seed uint64, n, m int) []Edge {
	return gen.RMAT(seed, n, m, gen.WeightUniform)
}
