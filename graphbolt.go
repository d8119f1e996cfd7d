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
//	srv.Query(func(s *graphbolt.ResultSnapshot[float64]) {
//		_ = s.Values[3]                                  // consistent at s.Generation
//	})
//	srv.Close(ctx)                                       // drain and stop
//
// Algorithms are expressed against the incremental programming model of
// the paper (§3.3): an aggregation operator ⊕ with incremental
// counterparts ⊎ (Propagate), ⋃- (Retract) and ⋃△ (PropagateDelta), and
// a vertex function ∮ (Compute). Seven algorithms ship in the box:
// PageRank, Label Propagation, CoEM, Belief Propagation, Collaborative
// Filtering, SSSP/BFS/Connected Components (non-decomposable min), and
// an incremental Triangle Counter.
package graphbolt

import (
	"cmp"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kickstarter"
	"repro/internal/partition"
	"repro/internal/qcache"
	"repro/internal/serve"
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

// ApplyResult reports what a batch actually changed.
type ApplyResult = graph.ApplyResult

// VertexID identifies a vertex.
type VertexID = graph.VertexID

// Engine is the streaming BSP engine, generic over vertex value V and
// aggregation A.
type Engine[V, A any] = core.Engine[V, A]

// Program is the incremental programming model algorithms implement.
type Program[V, A any] = core.Program[V, A]

// DeltaProgram marks single-pass change-in-contribution support.
type DeltaProgram[V, A any] = core.DeltaProgram[V, A]

// PullProgram marks non-decomposable aggregations (min/max).
type PullProgram = core.PullProgram

// Options configures an Engine.
type Options = core.Options

// Stats reports per-call work.
type Stats = core.Stats

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
// checkpoints: every batch is journaled before it mutates memory, and
// OpenDurable recovers the exact pre-crash state from disk.
type DurableEngine[V, A any] = durable.Engine[V, A]

// DurableOptions configures journaling and checkpoint cadence.
type DurableOptions = durable.Options

// RecoveryInfo reports how OpenDurable reconstructed engine state.
type RecoveryInfo = durable.RecoveryInfo

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

// ShardedDurableEngine is a set of per-shard durable engines sharing
// one partitioner: shard s journals and checkpoints the sub-stream it
// owns under its own directory, independently of its siblings, and
// recovery replays per shard. Serve it with NewShardedDurableServer.
type ShardedDurableEngine[V, A any] struct {
	pt     *partition.Partitioner
	shards []*DurableEngine[V, A]
}

// OpenShardedDurable splits eng's base graph into shards by
// destination-vertex ownership and wraps each shard in its own durable
// engine rooted at dir/shard-NNNN, recovering whatever a previous
// process left in each. eng must be freshly constructed (same program,
// options and base graph as the original run) and not have Run yet,
// exactly as OpenDurable requires — it only supplies the graph,
// program and options; serving state lives in the per-shard engines.
//
// assign optionally pins vertices to shards (see partition.New). opts
// configures each shard's journal; nil means defaults everywhere, and
// a non-nil func may return different options per shard (fault
// injection on one shard, sync policy by shard, ...).
func OpenShardedDurable[V, A any](eng *Engine[V, A], dir string, shards int, assign map[VertexID]int, opts func(shard int) DurableOptions) (*ShardedDurableEngine[V, A], error) {
	pt, engines, err := spawnShards(eng, shards, assign)
	if err != nil {
		return nil, err
	}
	sd := &ShardedDurableEngine[V, A]{pt: pt, shards: make([]*DurableEngine[V, A], shards)}
	for s, sub := range engines {
		var o DurableOptions
		if opts != nil {
			o = opts(s)
		}
		sd.shards[s], err = durable.Open(sub, filepath.Join(dir, fmt.Sprintf("shard-%04d", s)), o)
		if err != nil {
			for _, d := range sd.shards[:s] {
				d.Close()
			}
			return nil, fmt.Errorf("graphbolt: sharded durable: shard %d: %w", s, err)
		}
	}
	return sd, nil
}

// spawnShards splits eng's graph by destination-vertex ownership and
// spawns one fresh engine (same program and options) per shard.
func spawnShards[V, A any](eng *Engine[V, A], shards int, assign map[VertexID]int) (*partition.Partitioner, []*Engine[V, A], error) {
	pt, err := partition.New(shards, assign)
	if err != nil {
		return nil, nil, err
	}
	parts, err := pt.SplitGraph(eng.Graph())
	if err != nil {
		return nil, nil, err
	}
	engines := make([]*Engine[V, A], shards)
	for s, g := range parts {
		if engines[s], err = eng.SpawnForGraph(g); err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return pt, engines, nil
}

// Shards returns the shard count.
func (sd *ShardedDurableEngine[V, A]) Shards() int { return len(sd.shards) }

// Shard returns shard s's durable engine, for inspection (Recovery,
// Seq, Checkpoint). Writes must go through the server.
func (sd *ShardedDurableEngine[V, A]) Shard(s int) *DurableEngine[V, A] { return sd.shards[s] }

// Recovery reports how each shard reconstructed its state, indexed by
// shard.
func (sd *ShardedDurableEngine[V, A]) Recovery() []RecoveryInfo {
	out := make([]RecoveryInfo, len(sd.shards))
	for s, d := range sd.shards {
		out[s] = d.Recovery()
	}
	return out
}

// Close closes every shard's journal, returning the first error.
func (sd *ShardedDurableEngine[V, A]) Close() error {
	var first error
	for s, d := range sd.shards {
		if err := d.Close(); err != nil && first == nil {
			first = fmt.Errorf("graphbolt: sharded durable: shard %d: %w", s, err)
		}
	}
	return first
}

// NewShardedDurableServer serves a sharded durable engine set: the one
// ingest loop fans every batch out over the shards, each journaling its
// sub-batch into its own WAL, and publishes merged snapshots.
// ServerOptions.Shards and ShardAssign are taken from sd and ignored on
// opts. Close also closes every shard's journal.
func NewShardedDurableServer[V, A any](sd *ShardedDurableEngine[V, A], opts ServerOptions) (*Server[V, A], error) {
	engines := make([]*core.Engine[V, A], len(sd.shards))
	targets := make([]serve.Applier, len(sd.shards))
	for s, d := range sd.shards {
		engines[s] = d.Core()
		targets[s] = d
	}
	srv, err := newShardedServer(sd.pt, engines, targets, sd.Close, opts)
	if err != nil {
		return nil, fmt.Errorf("graphbolt: sharded durable: %w", err)
	}
	return srv, nil
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
	// names the offending edge's index and endpoints. A server
	// quarantines such batches (see Server.Quarantined) rather than
	// failing; the submitter's ticket carries this sentinel.
	ErrInvalidBatch = graph.ErrInvalidBatch
	// ErrGenerationNotRetained reports a SnapshotAt/Diff generation
	// outside the retained history window.
	ErrGenerationNotRetained = core.ErrGenerationNotRetained
)

// SnapshotDiff reports the vertices whose values changed between two
// retained generations, with before/after values and structural deltas.
type SnapshotDiff[V any] = core.SnapshotDiff[V]

// QueryCache is the per-generation cache memoizing derived reads
// (top-k, per-vertex lookups, histograms) over immutable snapshots.
// Obtain one from Server.Cache; nil is valid and computes uncached.
type QueryCache = qcache.Cache

// VertexValue pairs a vertex with its value in some snapshot, as
// returned by TopK.
type VertexValue[V any] = qcache.VertexValue[V]

// Histogram is a fixed-bin distribution of a snapshot-derived quantity
// (vertex values or out-degrees).
type Histogram = qcache.Histogram

// Re-exported derived-read helpers. Each memoizes its result in the
// given QueryCache (nil computes uncached), keyed on the snapshot's
// generation — snapshots are immutable, so hits never go stale.
var (
	// ValueHistogram bins a float64 snapshot's values into equal-width
	// buckets between the observed finite extremes.
	ValueHistogram = qcache.ValueHistogram
)

// TopK returns the k highest-valued vertices of the snapshot, ties
// broken by ascending vertex id, memoized in c.
func TopK[V cmp.Ordered](c *QueryCache, s *ResultSnapshot[V], k int) []VertexValue[V] {
	return qcache.TopK(c, s, k)
}

// VertexValueAt returns one vertex's value in the snapshot (false when
// the vertex is out of range), memoized in c.
func VertexValueAt[V any](c *QueryCache, s *ResultSnapshot[V], v VertexID) (V, bool) {
	return qcache.Value(c, s, v)
}

// DegreeHistogram bins the snapshot graph's out-degrees into log2
// buckets, memoized in c.
func DegreeHistogram[V any](c *QueryCache, s *ResultSnapshot[V]) *Histogram {
	return qcache.DegreeHistogram(c, s)
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
