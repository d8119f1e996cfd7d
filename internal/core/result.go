package core

import (
	"time"

	"repro/internal/graph"
)

// ResultSnapshot is an immutable, internally consistent view of a
// completed computation: the graph generation it was computed on, the
// vertex values, the BSP level that produced them, and the engine's
// cumulative statistics at publication time.
//
// Snapshots are published atomically at the end of every successful
// Run, ApplyBatch and ReadSnapshot, exploiting the BSP guarantee
// (paper §2.2): between those calls the engine's results are exactly
// the converged values of a from-scratch run on the current graph, so
// the (graph, values, level) triple can be handed to readers as one
// consistent unit. A snapshot is never mutated after publication —
// concurrent readers may hold it indefinitely without synchronization
// while the single writer streams further batches.
//
// Values is owned by the snapshot: the engine copies the value slice at
// publication and never writes to it again. For value types containing
// references (e.g. V = []float64), the copy is shallow; this is safe
// because the engine replaces vertex values wholesale (Program.Compute
// returns a fresh value) and never mutates a value in place.
type ResultSnapshot[V any] struct {
	// Generation counts publications: 1 after the initial Run (or a
	// checkpoint restore), +1 per successfully applied batch. It orders
	// snapshots and keys Server.Wait.
	Generation uint64

	// Graph is the immutable structure snapshot the values were computed
	// on.
	Graph *graph.Graph

	// Values holds the converged vertex values; index by VertexID. Do
	// not write to it — it is shared by every reader of this generation.
	// Use CopyValues for an owned slice.
	Values []V

	// Level is the number of completed BSP iterations backing Values.
	Level int

	// Stats is the engine's cumulative work statistics when this
	// snapshot was published.
	Stats Stats

	// PublishedAt is when the snapshot became visible; read staleness is
	// measured against it.
	PublishedAt time.Time
}

// CopyValues returns a freshly allocated copy of the snapshot's value
// slice, for callers that want to retain or mutate results without
// holding the shared snapshot slice. The element copy is shallow.
func (s *ResultSnapshot[V]) CopyValues() []V {
	if s == nil {
		return nil
	}
	return append([]V(nil), s.Values...)
}

// Snapshot returns the most recently published result snapshot, or nil
// if the engine has not completed a Run, ApplyBatch or ReadSnapshot
// yet. The returned snapshot is immutable and safe to read from any
// goroutine, concurrently with the single writer applying batches —
// this is the engine's lock-free read path.
func (e *Engine[V, A]) Snapshot() *ResultSnapshot[V] {
	return e.snap.Load()
}

// Publish copies the live result state into a fresh ResultSnapshot and
// swaps it in atomically, as the next generation: it makes the state
// Stage left visible to readers. Called by the single writer at the end
// of every successful Run/ApplyBatch/ReadSnapshot; the O(V) value copy
// is what buys readers lock-free access to a stable generation.
func (e *Engine[V, A]) Publish() {
	gen := uint64(1)
	if prev := e.snap.Load(); prev != nil {
		gen = prev.Generation + 1
	}
	e.publishGen(gen)
}

// publishGen publishes the live result state under an explicit
// generation number. ReadSnapshot uses it to resume the counter a
// checkpoint recorded — a checkpoint-restored engine (recovery, or a
// follower re-seeded after log compaction) continues the leader's
// generation sequence instead of restarting at 1, which is what keeps
// SnapshotAt(g) addressable by the same g on both sides of a
// replication stream. Generations skipped by a jump simply resolve as
// not retained.
func (e *Engine[V, A]) publishGen(gen uint64) {
	s := &ResultSnapshot[V]{
		Generation:  gen,
		Graph:       e.g,
		Values:      append([]V(nil), e.vals...),
		Level:       e.level,
		Stats:       e.stats,
		PublishedAt: time.Now(),
	}
	e.snap.Store(s)
	if e.ring != nil {
		e.ring.Push(s)
	}
	e.met.observeGeneration(gen)
	e.met.observeRetained(e.retainedCount(gen))
}

// retainedCount returns how many generations SnapshotAt can serve once
// gen is the newest one.
func (e *Engine[V, A]) retainedCount(gen uint64) int64 {
	k := uint64(e.retain())
	if gen < k {
		return int64(gen)
	}
	return int64(k)
}
