// Package graph provides the streaming-graph substrate underneath the
// GraphBolt engine: an immutable snapshot of a weighted directed graph,
// indexed by source and by destination, and batch mutation that produces
// the next snapshot in time proportional to the batch.
//
// Each direction is a paged, copy-on-write adjacency: a page table of
// fixed-size vertex pages whose entries are immutable per-vertex
// (targets, weights) lists. Apply copies the page table, clones the pages
// of the vertices a batch names and re-merges only those vertices' lists;
// every other page and list is shared with the snapshot it came from.
// This departs from §4.1 of the paper, which rewrites the whole CSR in
// two passes: that rewrite is amortised over 1K-100K-edge batches on
// 10^9-edge graphs, whereas a serving batch here is tens of edges, so
// anything proportional to |E| per batch is the whole write path (see
// DESIGN.md §5, "Mutation application").
//
// Adjacency lists are kept sorted by (neighbor id, weight), which makes
// deletion a merge, lookup a binary search, and triangle counting a
// sorted-set intersection. The order is canonical: Build(n, g.Edges(nil))
// reproduces g list for list, so a checkpoint round trip and the live
// graph delete the same copy of a parallel edge.
package graph

import (
	"fmt"
	"sort"

	"repro/internal/parallel"
)

// VertexID identifies a vertex. Dense ids in [0, NumVertices).
type VertexID = uint32

// Edge is a directed weighted edge.
type Edge struct {
	From, To VertexID
	Weight   float64
}

// pageShift sets the page size, the unit of copy-on-write. A 20-edge
// batch clones up to 40 pages at 48 bytes x pageSize each and copies two
// page tables of 8 bytes x V/pageSize. BenchmarkApplySmallBatch at page
// sizes 16/32/64/128 measured 29/33/45/72 us per batch at V=10^4 (page
// clones dominate) and 470/260/150/140 us at V=10^6 (page tables, and
// the GC cycles their garbage buys, dominate): 64 is the smallest size
// that is flat at the large end. Neighbor scans do not care
// (BenchmarkNeighborScan reads the same from 16 to 128).
const (
	pageShift = 6
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// list is one vertex's neighbors in one direction, sorted by (target,
// weight), with parallel weights. A list is never written after the
// snapshot that created it is returned.
type list struct {
	targets []VertexID
	weights []float64
}

// page holds the lists of pageSize consecutive vertices. Like a list, a
// page is immutable once its snapshot is returned; entries past the
// vertex count are empty.
type page [pageSize]list

// emptyPage backs every page no edge has touched yet (vertex growth
// allocates page-table slots, not pages). It is never written.
var emptyPage page

// adjacency is one direction of the graph: the page table. Neighbors of v
// are a[v>>pageShift][v&pageMask] — two dependent loads, no allocation.
type adjacency []*page

func numPages(n int) int { return (n + pageSize - 1) >> pageShift }

func (a adjacency) list(v VertexID) *list {
	return &a[v>>pageShift][v&pageMask]
}

func (a adjacency) degree(v VertexID) int {
	return len(a.list(v).targets)
}

func (a adjacency) neighbors(v VertexID) ([]VertexID, []float64) {
	l := a.list(v)
	return l.targets, l.weights
}

// Graph is an immutable snapshot of a directed weighted graph. Apply
// produces a new snapshot; the old one remains valid, which the
// refinement path relies on (old weights feed retraction).
type Graph struct {
	out adjacency // indexed by source
	in  adjacency // indexed by destination
	n   int
	m   int64
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns |E| (directed edge count, parallel edges included).
func (g *Graph) NumEdges() int64 { return g.m }

// OutDegree returns the number of out-edges of v.
func (g *Graph) OutDegree(v VertexID) int { return g.out.degree(v) }

// InDegree returns the number of in-edges of v.
func (g *Graph) InDegree(v VertexID) int { return g.in.degree(v) }

// OutNeighbors returns v's out-neighbor ids and edge weights, sorted by
// neighbor id. The returned slices alias the graph; do not modify.
func (g *Graph) OutNeighbors(v VertexID) ([]VertexID, []float64) {
	return g.out.neighbors(v)
}

// InNeighbors returns v's in-neighbor ids and edge weights, sorted by
// neighbor id. The returned slices alias the graph; do not modify.
func (g *Graph) InNeighbors(v VertexID) ([]VertexID, []float64) {
	return g.in.neighbors(v)
}

// HasEdge reports whether at least one edge (u,v) exists.
func (g *Graph) HasEdge(u, v VertexID) bool {
	ts, _ := g.out.neighbors(u)
	i := sort.Search(len(ts), func(i int) bool { return ts[i] >= v })
	return i < len(ts) && ts[i] == v
}

// EdgeWeight returns the weight of one edge (u,v) and whether it exists.
// With parallel edges it returns the first instance's weight.
func (g *Graph) EdgeWeight(u, v VertexID) (float64, bool) {
	ts, ws := g.out.neighbors(u)
	i := sort.Search(len(ts), func(i int) bool { return ts[i] >= v })
	if i < len(ts) && ts[i] == v {
		return ws[i], true
	}
	return 0, false
}

// Edges appends every edge to dst (in source-major sorted order) and
// returns it.
func (g *Graph) Edges(dst []Edge) []Edge {
	for v := 0; v < g.n; v++ {
		ts, ws := g.out.neighbors(VertexID(v))
		for i, t := range ts {
			dst = append(dst, Edge{From: VertexID(v), To: t, Weight: ws[i]})
		}
	}
	return dst
}

// Build constructs a snapshot from an edge list. n is the number of
// vertices; every endpoint must be < n and every weight finite (NaN and
// ±Inf are rejected, see ValidateEdge). Parallel edges and self loops
// are preserved.
func Build(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	for i, e := range edges {
		if int64(e.From) >= int64(n) || int64(e.To) >= int64(n) {
			return nil, fmt.Errorf("graph: edge %d (%d,%d) outside vertex range [0,%d)", i, e.From, e.To, n)
		}
		if err := ValidateEdge(e); err != nil {
			return nil, fmt.Errorf("graph: edge %d: %w", i, err)
		}
	}
	g := &Graph{n: n, m: int64(len(edges))}
	g.out = buildAdjacency(n, edges, false)
	g.in = buildAdjacency(n, edges, true)
	return g, nil
}

// MustBuild is Build that panics on error; for tests and generators whose
// inputs are valid by construction.
func MustBuild(n int, edges []Edge) *Graph {
	g, err := Build(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// buildAdjacency counting-sorts the edges into one targets and one
// weights array per direction and slices every vertex's list out of them.
// Lists that later batches replace leave their range of those arrays
// dead but reachable while any original list survives, so a snapshot
// chain retains at most one Build-sized copy of dead space per direction
// (12 bytes x len(edges)); rebuilding (a checkpoint restore) drops it.
func buildAdjacency(n int, edges []Edge, transpose bool) adjacency {
	key := func(e Edge) (VertexID, VertexID) {
		if transpose {
			return e.To, e.From
		}
		return e.From, e.To
	}
	offsets := make([]int64, n+1)
	for _, e := range edges {
		s, _ := key(e)
		offsets[s+1]++
	}
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	targets := make([]VertexID, len(edges))
	weights := make([]float64, len(edges))
	cursor := make([]int64, n)
	for _, e := range edges {
		s, t := key(e)
		p := offsets[s] + cursor[s]
		cursor[s]++
		targets[p] = t
		weights[p] = e.Weight
	}
	parallel.For(n, func(v int) {
		lo, hi := offsets[v], offsets[v+1]
		sortNeighborRange(targets[lo:hi], weights[lo:hi])
	})
	// Pages are allocated in vertex order, one after the other, so a scan
	// over all vertices walks memory forward.
	a := make(adjacency, numPages(n))
	for pi := range a {
		first := pi << pageShift
		last := min(first+pageSize, n)
		if offsets[first] == offsets[last] {
			a[pi] = &emptyPage
			continue
		}
		pg := new(page)
		for v := first; v < last; v++ {
			// Empty lists stay nil: an empty slice would still pin the
			// arrays. Full slice expressions: a list must not see its
			// neighbor's range as spare capacity.
			if lo, hi := offsets[v], offsets[v+1]; lo < hi {
				pg[v&pageMask] = list{targets[lo:hi:hi], weights[lo:hi:hi]}
			}
		}
		a[pi] = pg
	}
	return a
}

func sortNeighborRange(ts []VertexID, ws []float64) {
	sort.Sort(&neighborSorter{ts, ws})
}

type neighborSorter struct {
	ts []VertexID
	ws []float64
}

func (s *neighborSorter) Len() int { return len(s.ts) }

// Less orders by neighbor id with weight as tie-break so parallel edges
// appear in a deterministic order in both directions; deletion then
// removes the same instance from both.
func (s *neighborSorter) Less(i, j int) bool {
	if s.ts[i] != s.ts[j] {
		return s.ts[i] < s.ts[j]
	}
	return s.ws[i] < s.ws[j]
}
func (s *neighborSorter) Swap(i, j int) {
	s.ts[i], s.ts[j] = s.ts[j], s.ts[i]
	s.ws[i], s.ws[j] = s.ws[j], s.ws[i]
}
