package graph

import (
	"cmp"
	"slices"
)

// Batch is a set of structural mutations applied atomically between BSP
// iterations. Deletions are matched by (From,To); the weight field of a
// delete request is ignored and the actual deleted weight is reported in
// ApplyResult (refinement retracts old contributions using old weights).
type Batch struct {
	Add []Edge
	Del []Edge
}

// ApplyResult reports what a Batch actually did to the graph.
type ApplyResult struct {
	// Added are the edges inserted (equal to Batch.Add).
	Added []Edge
	// Deleted are the edges removed, carrying their original weights.
	Deleted []Edge
	// MissingDeletes counts delete requests that matched no edge.
	MissingDeletes int
}

// Apply produces a new snapshot reflecting the batch and leaves the
// receiver untouched: the new snapshot shares every page and list the
// batch does not name, and nothing reachable from the receiver is
// written. Cost is O(Σ deg(touched) + touched·pageSize + V/pageSize) plus
// sorting the batch — nothing proportional to |E|. Vertex ids referenced
// beyond the current range grow the vertex set.
//
// If a delete request matches multiple parallel edges, one instance is
// removed per request, lowest weight first.
func (g *Graph) Apply(batch Batch) (*Graph, ApplyResult) {
	n := g.n
	for _, e := range batch.Add {
		if int(e.From) >= n {
			n = int(e.From) + 1
		}
		if int(e.To) >= n {
			n = int(e.To) + 1
		}
	}

	var res ApplyResult
	res.Added = append(res.Added, batch.Add...)
	adds := slices.Clone(batch.Add)
	dels := slices.Clone(batch.Del)
	sortEdges(adds)
	sortEdges(dels)

	// The out direction determines which delete requests match; it
	// reports the removed instances (with weights), which then drive the
	// in direction so both stay consistent. The in direction sees every
	// edge flipped, so one mutate serves both.
	ng := &Graph{n: n}
	ng.out, res.Deleted = g.out.mutate(n, adds, dels)
	res.MissingDeletes = len(dels) - len(res.Deleted)

	gone := slices.Clone(res.Deleted)
	flipEdges(adds)
	flipEdges(gone)
	sortEdges(adds)
	sortEdges(gone)
	var removed []Edge
	ng.in, removed = g.in.mutate(n, adds, gone)
	if len(removed) != len(gone) {
		panic("graph: in and out directions disagree")
	}

	ng.m = g.m + int64(len(adds)) - int64(len(gone))
	return ng, res
}

// mutate returns the adjacency over n vertices with dels removed and adds
// inserted, and the removed edges with their stored weights in ascending
// (source, list position) order. Both inputs are in this direction's
// terms (From indexes the page table) and sorted by sortEdges; a delete
// request matches on (From, To) alone. Touched vertices are visited in
// ascending order, so each page is cloned at most once.
func (a adjacency) mutate(n int, adds, dels []Edge) (adjacency, []Edge) {
	na := make(adjacency, numPages(n))
	for i := copy(na, a); i < len(na); i++ {
		na[i] = &emptyPage
	}
	var removed []Edge
	cloned := -1 // index of the page cloned last
	for len(adds) > 0 || len(dels) > 0 {
		// The lowest vertex either list still names.
		var v VertexID
		if len(dels) == 0 || (len(adds) > 0 && adds[0].From <= dels[0].From) {
			v = adds[0].From
		} else {
			v = dels[0].From
		}
		va := sourceRun(adds, v)
		vd := sourceRun(dels, v)
		adds, dels = adds[len(va):], dels[len(vd):]
		if int(v) >= n {
			continue // a delete naming a vertex the graph does not have
		}
		old := *na.list(v)
		matches := countMatches(old.targets, vd)
		if len(va) == 0 && matches == 0 {
			continue // nothing to change: keep sharing the page
		}

		size := len(old.targets) + len(va) - matches
		nl := list{make([]VertexID, 0, size), make([]float64, 0, size)}
		for i, t := range old.targets {
			w := old.weights[i]
			// Insert additions in (target, weight) order so the merged
			// list keeps the canonical ordering buildAdjacency
			// establishes; a graph round-tripped through Edges+Build
			// (checkpointing) must match this one instance-for-instance,
			// or later deletions of parallel edges pick different copies.
			for len(va) > 0 && (va[0].To < t || (va[0].To == t && va[0].Weight < w)) {
				nl.targets = append(nl.targets, va[0].To)
				nl.weights = append(nl.weights, va[0].Weight)
				va = va[1:]
			}
			// Skip delete requests whose target has been passed.
			for len(vd) > 0 && vd[0].To < t {
				vd = vd[1:]
			}
			if len(vd) > 0 && vd[0].To == t {
				vd = vd[1:]
				removed = append(removed, Edge{From: v, To: t, Weight: w})
				continue
			}
			nl.targets = append(nl.targets, t)
			nl.weights = append(nl.weights, w)
		}
		for _, e := range va {
			nl.targets = append(nl.targets, e.To)
			nl.weights = append(nl.weights, e.Weight)
		}
		if len(nl.targets) != size {
			panic("graph: match count and merge disagree")
		}

		pi := int(v >> pageShift)
		if pi != cloned {
			pg := *na[pi]
			na[pi] = &pg
			cloned = pi
		}
		na[pi][v&pageMask] = nl
	}
	return na, removed
}

// sourceRun returns the leading run of edges whose From is v.
func sourceRun(edges []Edge, v VertexID) []Edge {
	i := 0
	for i < len(edges) && edges[i].From == v {
		i++
	}
	return edges[:i]
}

// sortEdges orders edges by (From, To, Weight): grouped by the vertex
// whose list they change, and within a group in the order the adjacency
// lists use, so deletion removes the same parallel-edge instances in both
// directions.
func sortEdges(edges []Edge) {
	slices.SortFunc(edges, func(a, b Edge) int {
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		if c := cmp.Compare(a.To, b.To); c != 0 {
			return c
		}
		return cmp.Compare(a.Weight, b.Weight)
	})
}

func flipEdges(edges []Edge) {
	for i, e := range edges {
		edges[i].From, edges[i].To = e.To, e.From
	}
}

// countMatches merges a sorted neighbor list against sorted delete
// requests, consuming one neighbor instance per request.
func countMatches(ts []VertexID, want []Edge) int {
	i, j, matches := 0, 0, 0
	for i < len(ts) && j < len(want) {
		switch {
		case ts[i] < want[j].To:
			i++
		case ts[i] > want[j].To:
			j++
		default:
			matches++
			i++
			j++
		}
	}
	return matches
}
