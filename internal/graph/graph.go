// Package graph provides the streaming-graph substrate underneath the
// GraphBolt engine: an immutable snapshot of a weighted directed graph,
// indexed by source and by destination, and batch mutation that produces
// the next snapshot in time proportional to the batch.
//
// Each direction is a paged, copy-on-write adjacency: a page table of
// fixed-size vertex pages whose entries are spans (chunk, offset, length)
// into append-only edge chunks that the snapshots of one chain share.
// Pages hold no pointers. Apply copies the page table, clones the pages
// of the vertices a batch names, and writes only those vertices' merged
// lists past the end of the chain's tail chunk, where no existing
// snapshot looks; every other page and list is shared with the snapshot
// it came from. A replaced list stays in its chunk as dead entries; once
// they outnumber half the live ones, Apply evicts the mostly-dead chunks
// from the new snapshot and moves the lists still in them. This departs
// from §4.1 of the paper, which rewrites the whole CSR in two passes:
// that rewrite is amortised over 1K-100K-edge batches on 10^9-edge
// graphs, whereas a serving batch here is tens of edges, so anything
// proportional to |E| per batch is the whole write path (see DESIGN.md
// §5, "Mutation application").
//
// Adjacency lists are kept sorted by (neighbor id, weight), which makes
// deletion a merge, lookup a binary search, and triangle counting a
// sorted-set intersection. Build places them with counting sorts, with
// no comparison sort of a list, and Apply's merges keep the order. The
// order is canonical: Build(n, g.Edges(nil)) reproduces g list for list,
// so a checkpoint round trip and the live graph delete the same copy of
// a parallel edge.
package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// VertexID identifies a vertex. Dense ids in [0, NumVertices).
type VertexID = uint32

// Edge is a directed weighted edge.
type Edge struct {
	From, To VertexID
	Weight   float64
}

// pageShift sets the page size, the unit of copy-on-write. A page holds
// spans, not pointers: cloning one is a 12 x pageSize-byte copy the GC
// neither scans nor write-barriers. A batch clones up to one page per
// touched vertex and direction, and copies two page tables of 8 bytes x
// V/pageSize. A chain of batches on a uniform graph of average degree 8
// (2-vCPU host) read, at shifts 6/7/8/9, 5.5/5.2/4.5/5.6 us per 1-edge
// batch and 55/59/66/83 us per 20-edge batch at V=2^14, and 61/30/19/16
// us per 1-edge batch at V=2^20, where the page tables dominate. 256 is
// the size at which a 1-edge batch grows least from 2^14 to 2^20 without
// small batches paying for big page clones. Neighbor scans do not care.
const (
	pageShift = 8
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Edge chunks. A chunk holds chunkEntries (target, weight) entries; a
// list longer than ownChunkOver gets a chunk of exactly its length, so a
// list never wastes more than a quarter of a chunk when it does not fit
// the tail. Dead entries are reclaimed once they exceed half the live
// ones and compactFloor (see adjacency.compactIfDead).
const (
	chunkEntries = 1 << 14
	ownChunkOver = chunkEntries / 4
	compactFloor = 2 * chunkEntries
)

// span locates one vertex's list in one direction: n entries from off in
// chunk number chunk. The zero span is the empty list; it is never
// resolved, so an empty list does not depend on any chunk.
type span struct{ chunk, off, n uint32 }

// page holds the spans of pageSize consecutive vertices. A page is
// immutable once its snapshot is returned; entries past the vertex count
// are empty.
type page [pageSize]span

// emptyPage backs every page no edge has touched yet (vertex growth
// allocates page-table slots, not pages). It is never written.
var emptyPage page

// chunk is one slot of a snapshot's chunk list: a pair of parallel entry
// arrays and the log of the vertices whose lists were written to them,
// all shared with the other snapshots of the chain, and this snapshot's
// count of the entries that its lists use (live) and that were written
// for its lineage (stored: live, dead, and an unused end abandoned when
// the chunk stopped being a tail). An entry is written once, past the
// store's used mark, and never again; the owner log only grows. A zero
// slot is a chunk this snapshot does not hold.
type chunk struct {
	ts           []VertexID
	ws           []float64
	owners       []VertexID
	live, stored uint32
}

// store is what the snapshots of one chain share in one direction: the
// chunk counter and two tail chunks, one that Apply appends merged lists
// to and one that compaction moves surviving lists to. A list that
// survived a compaction belongs to a vertex batches have not touched for
// a while; appended apart from freshly merged lists, it is not moved
// again with them (on an RMAT stream of 20-edge batches, one shared tail
// made Apply 25 % slower). The store holds no list of chunks, so a
// retained old snapshot keeps alive only the chunks its own list names.
type store struct {
	mu    sync.Mutex
	next  uint32 // the number the next new chunk gets
	tails [2]tail
}

// The two tails of a store.
const (
	merged = iota
	survivors
)

// tail is a chunk that lists are being appended to.
type tail struct {
	num  uint32
	c    chunk // arrays and owners only; the counts live in each snapshot's list
	used int   // entries of c handed out; everything past it is unreferenced
}

// adjacency is one direction of a snapshot. Neighbors of v are the span
// pages[v>>pageShift][v&pageMask] resolved in chunks — three dependent
// loads, no allocation.
type adjacency struct {
	pages  []*page
	chunks []chunk // indexed by chunk number
	st     *store
	stored int64 // the chunks' stored counts summed; stored - NumEdges is dead space
}

func numPages(n int) int { return (n + pageSize - 1) >> pageShift }

func (a *adjacency) span(v VertexID) span {
	return a.pages[v>>pageShift][v&pageMask]
}

func (a *adjacency) degree(v VertexID) int {
	return int(a.span(v).n)
}

func (a *adjacency) neighbors(v VertexID) ([]VertexID, []float64) {
	s := a.span(v)
	if s.n == 0 {
		return nil, nil
	}
	c := &a.chunks[s.chunk]
	lo, hi := s.off, s.off+s.n
	// Full slice expressions: a list must not see its neighbor's entries
	// as spare capacity.
	return c.ts[lo:hi:hi], c.ws[lo:hi:hi]
}

// bytes is the memory this direction holds: the page table, the
// non-empty pages and the stored entries (a 4-byte target and an 8-byte
// weight each).
func (a *adjacency) bytes() int64 {
	b := 8*int64(len(a.pages)) + 12*a.stored
	for _, pg := range a.pages {
		if pg != &emptyPage {
			b += 12 * pageSize // a span is three uint32s
		}
	}
	return b
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

// Bytes returns the memory the snapshot's adjacency holds in both
// directions: page tables, non-empty pages, and every entry stored in
// its chunks, live or dead. Pages and chunks shared with other snapshots
// of the chain count in each of them.
func (g *Graph) Bytes() int64 { return g.out.bytes() + g.in.bytes() }

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
//
// Both directions are placed by counting sorts, in three passes over the
// edges: a pass by target into the in arrays, used as scratch; a stable
// pass from there by source into the out arrays, which leaves every
// out-list in target order; and a pass over each out-list putting every
// run of parallel edges in weight order. The in-lists are then filled by
// walking the out-lists in source order, so each in-list is in (source,
// weight) order and is the exact transpose of the out-lists, copy for
// copy. Equal weights (+0 and -0) keep the order they had in edges, so
// Build(n, g.Edges(nil)) reproduces g bit for bit.
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
	if int64(len(edges)) > math.MaxUint32 {
		return nil, fmt.Errorf("graph: %d edges exceed a chunk's %d entries", len(edges), uint32(math.MaxUint32))
	}
	m := len(edges)
	outOff := make([]uint32, n+1)
	inOff := make([]uint32, n+1)
	for _, e := range edges {
		outOff[int(e.From)+1]++
		inOff[int(e.To)+1]++
	}
	for v := 0; v < n; v++ {
		outOff[v+1] += outOff[v]
		inOff[v+1] += inOff[v]
	}
	outTs, outWs := make([]VertexID, m), make([]float64, m)
	inTs, inWs := make([]VertexID, m), make([]float64, m)
	cursor := make([]uint32, n)

	// By target: in-lists in edge order.
	copy(cursor, inOff)
	for _, e := range edges {
		p := cursor[e.To]
		cursor[e.To]++
		inTs[p], inWs[p] = e.From, e.Weight
	}
	// Stably by source: out-lists in target order.
	copy(cursor, outOff)
	for t := 0; t < n; t++ {
		for p := inOff[t]; p < inOff[t+1]; p++ {
			u := inTs[p]
			q := cursor[u]
			cursor[u]++
			outTs[q], outWs[q] = VertexID(t), inWs[p]
		}
	}
	// Parallel edges in weight order.
	for u := 0; u < n; u++ {
		sortParallelRuns(outTs[outOff[u]:outOff[u+1]], outWs[outOff[u]:outOff[u+1]])
	}
	// The transpose: in-lists in (source, weight) order.
	copy(cursor, inOff)
	for u := 0; u < n; u++ {
		for p := outOff[u]; p < outOff[u+1]; p++ {
			t := outTs[p]
			q := cursor[t]
			cursor[t]++
			inTs[q], inWs[q] = VertexID(u), outWs[p]
		}
	}
	return &Graph{
		n:   n,
		m:   int64(m),
		out: newAdjacency(n, outOff, outTs, outWs),
		in:  newAdjacency(n, inOff, inTs, inWs),
	}, nil
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

// sortParallelRuns puts each run of equal targets in the target-sorted
// list ts in weight order. The order is stable, so +0 and -0 keep their
// relative order; most runs are a single edge.
func sortParallelRuns(ts []VertexID, ws []float64) {
	for lo := 0; lo < len(ts); {
		hi := lo + 1
		for hi < len(ts) && ts[hi] == ts[lo] {
			hi++
		}
		if hi-lo > 1 {
			slices.SortStableFunc(ws[lo:hi], cmp.Compare[float64])
		}
		lo = hi
	}
}

// newAdjacency makes one direction over targets and weights, chunk 0 of
// a fresh store, in which v's list is [offsets[v], offsets[v+1]). A chain
// built from this snapshot writes its lists to later chunks; chunk 0's
// replaced ranges are dead space until a compaction (or a rebuild, a
// checkpoint restore) drops them.
func newAdjacency(n int, offsets []uint32, targets []VertexID, weights []float64) adjacency {
	var owners []VertexID
	for v := 0; v < n; v++ {
		if offsets[v] < offsets[v+1] {
			owners = append(owners, VertexID(v))
		}
	}
	m := uint32(len(targets))
	a := adjacency{
		pages:  make([]*page, numPages(n)),
		chunks: []chunk{{targets, weights, owners, m, m}},
		st:     &store{next: 1},
		stored: int64(m),
	}
	// Pages are allocated in vertex order, one after the other, so a scan
	// over all vertices walks memory forward.
	for pi := range a.pages {
		first := pi << pageShift
		last := min(first+pageSize, n)
		if offsets[first] == offsets[last] {
			a.pages[pi] = &emptyPage
			continue
		}
		pg := new(page)
		for v := first; v < last; v++ {
			// An empty list stays the zero span.
			if lo, hi := offsets[v], offsets[v+1]; lo < hi {
				pg[v&pageMask] = span{0, lo, hi - lo}
			}
		}
		a.pages[pi] = pg
	}
	return a
}
