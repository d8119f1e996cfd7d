// Package partition implements sharded serving: a deterministic vertex
// partitioner, a batch splitter that routes each edge to its owning
// shard, and an Applier that fans every batch of the single serve.Loop
// out over per-shard in-memory engines, joins them (the cross-shard
// generation barrier) and publishes one merged snapshot. Shards are an
// in-memory fan-out only: there is no per-shard journal or checkpoint,
// and durability is the single-engine durable wrapper's concern.
//
// Ownership is by destination vertex: edge u→v belongs to Owner(v), so
// all of a vertex's in-edges — the inputs to its pull-style aggregation
// — land in one shard, and that shard's engine computes the vertex's
// value. A stream is partition-closed when every edge's endpoints share
// an owner (components never straddle shards); over such streams the
// merged view is exactly equal to a single engine applying the same
// stream (each shard sees the full vertex numbering and every edge of
// every component it owns). Streams with cross-partition edges still
// serve and converge per shard, but refinement is partition-local —
// the trade-off the Layph line of work accepts for skewed graphs.
package partition

import (
	"fmt"

	"repro/internal/graph"
)

// Partitioner deterministically maps vertices (and thus edges) to
// shards: an explicit assignment table consulted first, then a
// splitmix64 hash of the vertex ID. The mapping is pure — same inputs,
// same owner, on every process and every call — so a batch always
// splits the same way and the differential equivalence harness can
// build partition-closed streams from the same ownership.
type Partitioner struct {
	shards int
	assign map[graph.VertexID]int
}

// New builds a partitioner over n shards (n >= 1) with an optional
// explicit assignment map (vertex → shard). Explicit entries override
// the hash; their shard indices must be in [0, n).
func New(n int, assign map[graph.VertexID]int) (*Partitioner, error) {
	if n < 1 {
		return nil, fmt.Errorf("partition: need at least 1 shard, got %d", n)
	}
	p := &Partitioner{shards: n}
	if len(assign) > 0 {
		p.assign = make(map[graph.VertexID]int, len(assign))
		for v, s := range assign {
			if s < 0 || s >= n {
				return nil, fmt.Errorf("partition: vertex %d assigned to shard %d, want [0,%d)", v, s, n)
			}
			p.assign[v] = s
		}
	}
	return p, nil
}

// Shards returns the shard count.
func (p *Partitioner) Shards() int { return p.shards }

// Owner returns the shard owning vertex v: the explicit assignment if
// present, else a splitmix64 hash of the ID mod the shard count.
func (p *Partitioner) Owner(v graph.VertexID) int {
	if s, ok := p.assign[v]; ok {
		return s
	}
	if p.shards == 1 {
		return 0
	}
	x := uint64(v) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(p.shards))
}

// EdgeOwner returns the shard owning edge e — the owner of its
// destination, so all in-edges of a vertex live in one shard.
func (p *Partitioner) EdgeOwner(e graph.Edge) int { return p.Owner(e.To) }

// Split routes each edge of b to its owning shard, preserving the
// per-shard relative order of both Add and Del. The returned slice has
// exactly Shards() entries; shards b touches no edge of get zero-value
// batches. Recombining the sub-batches in owner order reconstructs a
// permutation of b that is order-preserving within every shard — the
// property the sharded apply relies on for del-matching determinism.
// The sub-batch slices are freshly allocated; b is not retained.
func (p *Partitioner) Split(b graph.Batch) []graph.Batch {
	out := make([]graph.Batch, p.shards)
	if p.shards == 1 {
		out[0] = graph.Batch{
			Add: append([]graph.Edge(nil), b.Add...),
			Del: append([]graph.Edge(nil), b.Del...),
		}
		return out
	}
	for _, e := range b.Add {
		s := p.EdgeOwner(e)
		out[s].Add = append(out[s].Add, e)
	}
	for _, e := range b.Del {
		s := p.EdgeOwner(e)
		out[s].Del = append(out[s].Del, e)
	}
	return out
}

// SplitGraph splits g into per-shard graphs over the same vertex set:
// shard s's graph holds exactly the edges it owns, so the union of the
// shard graphs is g. Every shard graph has g.NumVertices() vertices —
// per-shard engines index the full numbering and the merged view reads
// each vertex from its owner.
func (p *Partitioner) SplitGraph(g *graph.Graph) ([]*graph.Graph, error) {
	edges := g.Edges(nil)
	parts := make([][]graph.Edge, p.shards)
	for _, e := range edges {
		s := p.EdgeOwner(e)
		parts[s] = append(parts[s], e)
	}
	out := make([]*graph.Graph, p.shards)
	for s, es := range parts {
		sg, err := graph.Build(g.NumVertices(), es)
		if err != nil {
			return nil, fmt.Errorf("partition: shard %d graph: %w", s, err)
		}
		out[s] = sg
	}
	return out, nil
}
