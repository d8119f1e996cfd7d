package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// MultiView merges the published snapshots of N per-shard engines into
// one composite read view with the exact semantics of a single engine's
// snapshot stream: Snapshot, SnapshotAt, RetainedGenerations and Wait
// (via Generation ordering) all behave as if one engine had applied the
// merged mutation stream.
//
// The partition applier owns publication: after every shard engine has
// applied its share of a batch (no batch partially applied), it calls
// PublishMerged with the union graph and the per-shard snapshot vector.
// Each merged snapshot copies every vertex's value from its owning
// shard, so readers see one flat value slice — the same shape a single
// engine publishes — and may hold it indefinitely. The view lives in
// memory only, like the shard engines behind it.
//
// Concurrency mirrors the engine: PublishMerged is single-writer (the
// serve loop's apply goroutine); every read accessor is lock-free.
type MultiView[V, A any] struct {
	engines []*Engine[V, A]
	owner   func(graph.VertexID) int
	retain  int

	snap atomic.Pointer[ResultSnapshot[V]]
	ring *HistoryRing[V] // nil when retain <= 1
}

// NewMultiView builds a merged view over the per-shard engines. owner
// maps a vertex to the index of the engine that computes its value;
// retain is the history depth for SnapshotAt (values <= 1 keep only the
// newest generation addressable, matching Options.Retain semantics).
func NewMultiView[V, A any](engines []*Engine[V, A], owner func(graph.VertexID) int, retain int) (*MultiView[V, A], error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("core: multiview needs at least one engine")
	}
	if owner == nil {
		return nil, fmt.Errorf("core: multiview needs an owner function")
	}
	if retain < 1 {
		retain = 1
	}
	m := &MultiView[V, A]{engines: engines, owner: owner, retain: retain}
	if retain > 1 {
		m.ring = NewHistoryRing[V](retain)
	}
	return m, nil
}

// PublishMerged assembles and publishes the next composite snapshot:
// union is the merged graph covering every shard's edges, parts the
// per-shard snapshots forming a barrier-consistent generation vector
// (parts[s] from engines[s]; every multi-shard batch either fully
// reflected or fully absent). Vertex v's value comes from its owning
// shard; a vertex the owner's engine has not grown to yet (under a
// partition-closed stream such a vertex has no edges anywhere) takes
// Compute(v, IdentityAgg()) — the fixed point a from-scratch run
// assigns to an in-edge-less vertex after its first iteration, which
// InitValue alone does not always equal (PageRank: 1 vs 0.15). Level
// is the deepest shard level, Stats the sum of shard stats. Single
// writer only.
func (m *MultiView[V, A]) PublishMerged(union *graph.Graph, parts []*ResultSnapshot[V]) *ResultSnapshot[V] {
	gen := uint64(1)
	if prev := m.snap.Load(); prev != nil {
		gen = prev.Generation + 1
	}
	n := union.NumVertices()
	p := m.engines[0].p
	vals := make([]V, n)
	level := 0
	var stats Stats
	for v := 0; v < n; v++ {
		part := parts[m.owner(graph.VertexID(v))]
		if part != nil && v < len(part.Values) {
			vals[v] = part.Values[v]
		} else {
			vals[v] = p.Compute(graph.VertexID(v), p.IdentityAgg())
		}
	}
	for _, part := range parts {
		if part == nil {
			continue
		}
		if part.Level > level {
			level = part.Level
		}
		stats.Add(part.Stats)
	}
	s := &ResultSnapshot[V]{
		Generation:  gen,
		Graph:       union,
		Values:      vals,
		Level:       level,
		Stats:       stats,
		PublishedAt: time.Now(),
	}
	m.snap.Store(s)
	if m.ring != nil {
		m.ring.Push(s)
	}
	return s
}

// Snapshot returns the most recently published merged snapshot, nil
// before the first PublishMerged. Lock-free.
func (m *MultiView[V, A]) Snapshot() *ResultSnapshot[V] { return m.snap.Load() }

// SnapshotAt returns the retained merged snapshot for exactly
// generation gen, with the same semantics and error cases as
// Engine.SnapshotAt.
func (m *MultiView[V, A]) SnapshotAt(gen uint64) (*ResultSnapshot[V], error) {
	return snapshotAtIn(m.snap.Load(), m.ring, m.retain, gen)
}

// RetainedGenerations returns the inclusive generation window
// SnapshotAt can currently serve; (0, 0) before the first publication.
func (m *MultiView[V, A]) RetainedGenerations() (oldest, newest uint64) {
	cur := m.snap.Load()
	if cur == nil {
		return 0, 0
	}
	newest = cur.Generation
	oldest = 1
	if k := uint64(m.retain); newest > k {
		oldest = newest - k + 1
	}
	return oldest, newest
}
