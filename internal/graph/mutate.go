package graph

import (
	"cmp"
	"slices"
	"sort"
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
// sorting the batch — nothing proportional to |E| — plus, once dead
// entries outgrow half the live ones, moving the live lists out of the
// most-dead chunks (compactIfDead). Vertex ids referenced beyond the
// current range grow the vertex set.
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
	ng.out.compactIfDead(ng.m, g.out.pages)
	ng.in.compactIfDead(ng.m, g.in.pages)
	return ng, res
}

// mutate returns the adjacency over n vertices with dels removed and adds
// inserted, and the removed edges with their stored weights in ascending
// (source, list position) order. Both inputs are in this direction's
// terms (From indexes the page table) and sorted by sortEdges; a delete
// request matches on (From, To) alone. Touched vertices are visited in
// ascending order. Merged lists are written past the store's used mark
// under its lock, so an Apply to another snapshot of the chain,
// concurrent or later, writes elsewhere.
func (a *adjacency) mutate(n int, adds, dels []Edge) (adjacency, []Edge) {
	na := adjacency{
		pages:  make([]*page, numPages(n)),
		chunks: slices.Clone(a.chunks),
		st:     a.st,
		stored: a.stored,
	}
	for i := copy(na.pages, a.pages); i < len(na.pages); i++ {
		na.pages[i] = &emptyPage
	}
	na.st.mu.Lock()
	defer na.st.mu.Unlock()
	var removed []Edge
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
		ts, ws := na.neighbors(v)
		matches := countMatches(ts, vd)
		if len(va) == 0 && matches == 0 {
			continue // nothing to change: keep sharing the page
		}

		if old := na.span(v); old.n > 0 {
			na.chunks[old.chunk].live -= old.n
		}
		var s span // an emptied list is the zero span
		if size := len(ts) + len(va) - matches; size > 0 {
			var dt []VertexID
			var dw []float64
			s, dt, dw = na.alloc(size, merged, v)
			removed = merge(dt, dw, ts, ws, va, vd, v, removed)
		} else {
			for i, t := range ts {
				removed = append(removed, Edge{From: v, To: t, Weight: ws[i]})
			}
		}

		na.writable(v, a.pages)[v&pageMask] = s
	}
	return na, removed
}

// writable returns the page holding v's span for writing: the new
// snapshot's own clone, made on first use. prev is the page table of the
// snapshot Apply started from; a page still shared with it is cloned.
func (a *adjacency) writable(v VertexID, prev []*page) *page {
	pi := int(v >> pageShift)
	pg := a.pages[pi]
	if pg == &emptyPage || (pi < len(prev) && pg == prev[pi]) {
		c := *pg
		pg = &c
		a.pages[pi] = pg
	}
	return pg
}

// alloc reserves size entries for v's new list: a chunk of its own if
// the list is long, else the next free range of tail t, which it first
// replaces if the range does not fit. The caller holds a.st.mu and owns
// a.chunks.
func (a *adjacency) alloc(size, t int, v VertexID) (span, []VertexID, []float64) {
	st := a.st
	var num uint32
	off := 0
	if size > ownChunkOver {
		num = st.next
		st.next++
		a.setChunk(num, chunk{ts: make([]VertexID, size), ws: make([]float64, size), owners: []VertexID{v}})
	} else {
		tl := &st.tails[t]
		if tl.used+size > len(tl.c.ts) {
			if tl.c.ts != nil && a.holds(tl.num) {
				rem := len(tl.c.ts) - tl.used // the abandoned end
				a.chunks[tl.num].stored += uint32(rem)
				a.stored += int64(rem)
			}
			*tl = tail{num: st.next, c: chunk{ts: make([]VertexID, chunkEntries), ws: make([]float64, chunkEntries)}}
			st.next++
		}
		num, off = tl.num, tl.used
		tl.used += size
		tl.c.owners = append(tl.c.owners, v)
		if !a.holds(num) {
			a.setChunk(num, chunk{ts: tl.c.ts, ws: tl.c.ws})
		}
		a.chunks[num].owners = tl.c.owners
	}
	c := &a.chunks[num]
	c.live += uint32(size)
	c.stored += uint32(size)
	a.stored += int64(size)
	return span{num, uint32(off), uint32(size)}, c.ts[off : off+size], c.ws[off : off+size]
}

// isTail reports whether chunk num is one of the store's tails.
func (st *store) isTail(num uint32) bool {
	for _, tl := range st.tails {
		if tl.c.ts != nil && tl.num == num {
			return true
		}
	}
	return false
}

// setChunk puts c in slot num of the snapshot's chunk list.
func (a *adjacency) setChunk(num uint32, c chunk) {
	for len(a.chunks) <= int(num) {
		a.chunks = append(a.chunks, chunk{})
	}
	a.chunks[num] = c
}

// holds reports whether chunk num is one of this snapshot's chunks.
func (a *adjacency) holds(num uint32) bool {
	return int(num) < len(a.chunks) && a.chunks[num].ts != nil
}

// merge writes the list (ts, ws) with the delete requests vd removed and
// the additions va inserted into (dt, dw), and appends the removed
// instances to removed. It copies the list in runs between insertion and
// deletion points found by galloping search. An addition goes after every
// entry with an equal (target, weight), so the merged list keeps the
// canonical order Build establishes, equal entries in arrival order: a
// graph round-tripped through Edges+Build (checkpointing) must match
// this one instance-for-instance, or later deletions of parallel edges
// pick different copies. A deletion consumes the first unconsumed
// instance of its target; a request whose target is absent (or used up)
// is skipped.
func merge(dt []VertexID, dw []float64, ts []VertexID, ws []float64, va, vd []Edge, v VertexID, removed []Edge) []Edge {
	i, j := 0, 0 // read cursor in ts, write cursor in dt
	for {
		del := len(ts) // position of the next deletion
		for len(vd) > 0 {
			t := vd[0].To
			if k := gallop(i, len(ts), func(k int) bool { return ts[k] >= t }); k < len(ts) && ts[k] == t {
				del = k
				break
			}
			vd = vd[1:]
		}
		add := len(ts) // position of the next insertion
		if len(va) > 0 {
			e := va[0]
			add = gallop(i, len(ts), func(k int) bool {
				return ts[k] > e.To || (ts[k] == e.To && ws[k] > e.Weight)
			})
		} else if len(vd) == 0 {
			break
		}
		insert := len(va) > 0 && add <= del
		p := del
		if insert {
			p = add
		}
		copy(dt[j:], ts[i:p])
		copy(dw[j:], ws[i:p])
		j, i = j+p-i, p
		if insert {
			dt[j], dw[j] = va[0].To, va[0].Weight
			j++
			va = va[1:]
		} else {
			removed = append(removed, Edge{From: v, To: ts[i], Weight: ws[i]})
			i++
			vd = vd[1:]
		}
	}
	copy(dt[j:], ts[i:])
	copy(dw[j:], ws[i:])
	if j+len(ts)-i != len(dt) {
		panic("graph: match count and merge disagree")
	}
	return removed
}

// compactIfDead reclaims dead entries once they exceed half the live
// ones and compactFloor. It evicts the chunks with the smallest live
// share, never a tail, until at most three eighths of the live count
// stay dead, and moves the lists still in them to the survivors' tail.
// A chunk's owner log names every vertex that may have a list in it, so
// the cost is the evicted chunks' owners and live entries, not a scan of
// the graph. After every Apply a direction thus stores at most 1.5 x
// live + compactFloor entries, plus the unused ends of its two tails.
// Older snapshots keep the evicted chunks until the GC drops them. prev
// is the page table Apply started from.
func (a *adjacency) compactIfDead(live int64, prev []*page) {
	dead := a.stored - live
	if dead <= live/2 || dead <= compactFloor {
		return
	}
	st := a.st
	st.mu.Lock()
	defer st.mu.Unlock()
	var cands []uint32
	for num, c := range a.chunks {
		if c.ts != nil && !st.isTail(uint32(num)) {
			cands = append(cands, uint32(num))
		}
	}
	slices.SortFunc(cands, func(x, y uint32) int { // live share, ascending
		cx, cy := a.chunks[x], a.chunks[y]
		return cmp.Compare(uint64(cx.live)*uint64(cy.stored), uint64(cy.live)*uint64(cx.stored))
	})
	held := len(cands)
	vertices := VertexID(len(a.pages) << pageShift)
	for _, num := range cands {
		if dead <= live*3/8 {
			break
		}
		c := a.chunks[num]
		for _, v := range c.owners {
			if v >= vertices {
				continue // written by a fork that has more vertices
			}
			s := a.span(v)
			if s.n == 0 || s.chunk != num {
				continue // replaced since, or already moved
			}
			ns, dt, dw := a.alloc(int(s.n), survivors, v)
			copy(dt, c.ts[s.off:s.off+s.n])
			copy(dw, c.ws[s.off:s.off+s.n])
			a.writable(v, prev)[v&pageMask] = ns
		}
		dead -= int64(c.stored - c.live)
		a.stored -= int64(c.stored)
		a.chunks[num] = chunk{}
		held--
	}
	if len(a.chunks) > 2*held+8 {
		a.renumber(prev)
	}
}

// renumber gives the held chunks consecutive numbers in a fresh store,
// so that the chunk list an Apply clones stays proportional to what the
// snapshot holds, not to every chunk its chain ever evicted. It rewrites
// every non-empty page. The old store's tails stop being tails for this
// snapshot, so their unused ends count as abandoned. The fresh store is
// this snapshot's alone until Apply returns; the caller holds the old
// store's lock.
func (a *adjacency) renumber(prev []*page) {
	for _, tl := range a.st.tails {
		if tl.c.ts != nil && a.holds(tl.num) {
			rem := len(tl.c.ts) - tl.used
			a.chunks[tl.num].stored += uint32(rem)
			a.stored += int64(rem)
		}
	}
	remap := make([]uint32, len(a.chunks))
	var kept []chunk
	for num, c := range a.chunks {
		if c.ts != nil {
			remap[num] = uint32(len(kept))
			kept = append(kept, c)
		}
	}
	for pi, pg := range a.pages {
		if pg == &emptyPage {
			continue
		}
		np := a.writable(VertexID(pi<<pageShift), prev)
		for i, s := range np {
			if s.n > 0 {
				np[i].chunk = remap[s.chunk]
			}
		}
	}
	a.chunks, a.st = kept, &store{next: uint32(len(kept))}
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

// countMatches counts the delete requests that find an instance in the
// sorted neighbor list, consuming one instance per request: per distinct
// target, a galloping search and a walk over at most the requested count.
func countMatches(ts []VertexID, want []Edge) int {
	i, matches := 0, 0
	for len(want) > 0 && i < len(ts) {
		t := want[0].To
		k := 1
		for k < len(want) && want[k].To == t {
			k++
		}
		lo := gallop(i, len(ts), func(j int) bool { return ts[j] >= t })
		hi := lo
		for hi < len(ts) && ts[hi] == t && hi-lo < k {
			hi++
		}
		matches += hi - lo
		i, want = hi, want[k:]
	}
	return matches
}

// gallop returns the least k in [i, n] at which past turns true, for a
// predicate that is false and then true over [i, n) (n if it never
// turns). It probes i, i+1, i+3, i+7, ... and binary-searches the last
// step, so its cost is logarithmic in the distance from i rather than in
// n - i: the merges of a batch walk each list forward, and a dense batch
// finds its next point a few entries ahead.
func gallop(i, n int, past func(int) bool) int {
	lo, step := i, 1
	for lo+step-1 < n && !past(lo+step-1) {
		lo += step
		step *= 2
	}
	hi := min(lo+step-1, n)
	return lo + sort.Search(hi-lo, func(k int) bool { return past(lo + k) })
}
