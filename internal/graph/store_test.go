package graph

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// multiset is a reference edge multiset that deletes like the graph does
// (one instance per request, lowest weight first) in time proportional to
// the batch, so long streams can be checked.
type multiset struct {
	n int
	m map[[2]VertexID][]float64
}

func newMultiset(n int, edges []Edge) *multiset {
	s := &multiset{n: n, m: map[[2]VertexID][]float64{}}
	s.apply(Batch{Add: edges})
	return s
}

func (s *multiset) apply(b Batch) {
	for _, d := range b.Del {
		k := [2]VertexID{d.From, d.To}
		if ws := s.m[k]; len(ws) > 0 {
			s.m[k] = ws[1:]
		}
	}
	for _, e := range b.Add {
		k := [2]VertexID{e.From, e.To}
		ws := s.m[k]
		i, _ := slices.BinarySearch(ws, e.Weight)
		s.m[k] = slices.Insert(ws, i, e.Weight)
		s.n = max(s.n, int(e.From)+1, int(e.To)+1)
	}
}

func (s *multiset) graph() *Graph {
	var edges []Edge
	for k, ws := range s.m {
		for _, w := range ws {
			edges = append(edges, Edge{k[0], k[1], w})
		}
	}
	return MustBuild(s.n, edges)
}

// heldEntries is the capacity of every chunk a snapshot's direction can
// reach: in one chain, its stored entries plus the unused end of the tail.
func heldEntries(a *adjacency) int64 {
	var held int64
	for _, c := range a.chunks {
		held += int64(len(c.ts))
	}
	return held
}

// requireCounts fails unless each chunk's live count is what the pages
// name in it, every span resolves inside a held chunk whose owner log
// names the span's vertex, and the stored counts add up.
func requireCounts(t *testing.T, a *adjacency, what string) {
	t.Helper()
	live := make([]uint32, len(a.chunks))
	owners := make([]map[VertexID]bool, len(a.chunks))
	for num, c := range a.chunks {
		owners[num] = map[VertexID]bool{}
		for _, v := range c.owners {
			owners[num][v] = true
		}
	}
	for pi, pg := range a.pages {
		for i, s := range pg {
			if s.n == 0 {
				continue
			}
			v := VertexID(pi<<pageShift + i)
			if !a.holds(s.chunk) || int(s.off+s.n) > len(a.chunks[s.chunk].ts) {
				t.Fatalf("%s: vertex %d's span %+v outside the held chunks", what, v, s)
			}
			if !owners[s.chunk][v] {
				t.Fatalf("%s: chunk %d's owners miss vertex %d", what, s.chunk, v)
			}
			live[s.chunk] += s.n
		}
	}
	var stored int64
	for num, c := range a.chunks {
		if c.live != live[num] || c.stored < c.live || int(c.stored) > len(c.ts) {
			t.Fatalf("%s: chunk %d counts live %d stored %d cap %d, pages name %d",
				what, num, c.live, c.stored, len(c.ts), live[num])
		}
		stored += int64(c.stored)
	}
	if stored != a.stored {
		t.Fatalf("%s: chunks store %d entries, adjacency says %d", what, stored, a.stored)
	}
}

// TestChunkSpaceIsBounded runs a long stream with growth, deletions,
// parallel edges and batches of up to 1 000 edges through one chain, and
// checks after every Apply that neither direction stores more than 1.5 x
// live + one chunk + compactFloor entries, and that its chunks hold
// nothing else but the unused ends of the two tails: dead space is
// reclaimed, by compaction, as fast as the stream makes it.
func TestChunkSpaceIsBounded(t *testing.T) {
	steps := 150
	if testing.Short() {
		steps = 60
	}
	rng := rand.New(rand.NewSource(5))
	n := 3000
	edges := make([]Edge, 30_000)
	for i := range edges {
		// Hubs: a tenth of the sources carry most edges, so batches keep
		// rewriting long lists.
		from := rng.Intn(n)
		if rng.Intn(4) > 0 {
			from = rng.Intn(n / 10)
		}
		edges[i] = Edge{VertexID(from), VertexID(rng.Intn(n)), float64(rng.Intn(4)) / 2}
	}
	g := MustBuild(n, edges)
	ref := newMultiset(n, edges)
	compactions := [2]int{}
	for step := 0; step < steps; step++ {
		size := 1 + rng.Intn(60)
		if step%5 == 0 {
			size = 1000
		}
		batch := randomBatch(rng, g.NumVertices(), edges, size, 4)
		ng, _ := g.Apply(batch)
		ref.apply(batch)
		live := ng.NumEdges()
		for d, pair := range [2][2]*adjacency{{&g.out, &ng.out}, {&g.in, &ng.in}} {
			old, a := pair[0], pair[1]
			if a.stored < old.stored {
				compactions[d]++
			}
			requireCounts(t, a, "after apply")
			if limit := live + live/2 + chunkEntries + compactFloor; a.stored > limit {
				t.Fatalf("step %d, direction %d: %d entries stored for %d live, limit %d",
					step, d, a.stored, live, limit)
			}
			// What the chunks hold beyond that is the unused ends of the
			// store's two tails.
			if held := heldEntries(a); held > a.stored+2*chunkEntries {
				t.Fatalf("step %d, direction %d: chunks hold %d entries, %d stored", step, d, held, a.stored)
			}
		}
		if ng.Bytes() < 24*live {
			t.Fatalf("step %d: Bytes() = %d, under 24 bytes x %d edges", step, ng.Bytes(), live)
		}
		if step%25 == 0 || step == steps-1 {
			requireSameGraph(t, ng, ref.graph(), "after apply")
			edges = edgesOf(ng)
		}
		g = ng
	}
	if compactions[0] == 0 || compactions[1] == 0 {
		t.Fatalf("compactions out/in = %v: the stream never exercised reclamation", compactions)
	}
}

// TestConcurrentForksOfOneChain runs under -race in `make race`: two
// goroutines Apply to two snapshots of one chain at once — both write
// the chain's shared tail chunk — while readers scan a third. Every
// result must equal a rebuild of its reference edges, and the scanned
// snapshot must not change.
func TestConcurrentForksOfOneChain(t *testing.T) {
	steps := 80
	if testing.Short() {
		steps = 25
	}
	rng := rand.New(rand.NewSource(9))
	n := 5 * pageSize
	edges := make([]Edge, 3000)
	for i := range edges {
		edges[i] = Edge{VertexID(rng.Intn(n)), VertexID(rng.Intn(n)), float64(rng.Intn(4))}
	}
	type snap struct {
		g   *Graph
		ref *multiset
	}
	chain := []snap{{MustBuild(n, edges), newMultiset(n, edges)}}
	for i := 0; i < 3; i++ {
		last := chain[len(chain)-1]
		b := randomBatch(rng, last.g.NumVertices(), edgesOf(last.g), 40, 2)
		ng, _ := last.g.Apply(b)
		ref := newMultiset(last.ref.n, edgesOf(last.g))
		ref.apply(b)
		chain = append(chain, snap{ng, ref})
	}
	scanned := chain[3].g
	want := edgesOf(scanned)
	wantIn := inEdgesOf(scanned)

	// Batches are drawn up front: math/rand's Rand is not safe for
	// concurrent use.
	forks := [2][]Batch{}
	for f := range forks {
		es := edgesOf(chain[1+f].g)
		for i := 0; i < steps; i++ {
			forks[f] = append(forks[f], randomBatch(rng, n, es, 30, 3))
		}
	}

	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !slices.Equal(edgesOf(scanned), want) || !slices.Equal(inEdgesOf(scanned), wantIn) {
					t.Error("a scanned snapshot changed while its chain was forked")
					return
				}
			}
		}()
	}
	results := make([]snap, 2)
	for f := range forks {
		writers.Add(1)
		go func() {
			defer writers.Done()
			s := chain[1+f]
			ref := newMultiset(s.ref.n, edgesOf(s.g))
			g := s.g
			for _, b := range forks[f] {
				g, _ = g.Apply(b)
				ref.apply(b)
			}
			results[f] = snap{g, ref}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	for f, r := range results {
		if r.g == nil {
			t.Fatalf("fork %d produced nothing", f)
		}
		requireSameGraph(t, r.g, r.ref.graph(), "fork")
	}
}

// TestEmptiedListSurvivesCompaction: a vertex whose list is emptied reads
// as empty after the chunk its list lived in has been compacted away.
// An empty list is the zero span and names no chunk of its own.
func TestEmptiedListSurvivesCompaction(t *testing.T) {
	const hub, lone = VertexID(1), VertexID(7)
	n := 3 * pageSize
	var edges []Edge
	for i := 0; i < 4*ownChunkOver; i++ {
		edges = append(edges, Edge{hub, VertexID(i % n), float64(i % 5)})
	}
	g := MustBuild(n, edges)
	// lone's list is written by Apply into the tail chunk, then emptied.
	var grow, empty Batch
	for i := 0; i < 40; i++ {
		grow.Add = append(grow.Add, Edge{lone, VertexID(i), 1})
		empty.Del = append(empty.Del, Edge{From: lone, To: VertexID(i)})
	}
	g, _ = g.Apply(grow)
	if s := g.out.span(lone); s.n != 40 || s.chunk == 0 {
		t.Fatalf("lone's list is %+v, want 40 entries past chunk 0", s)
	}
	loneChunk := &g.out.chunks[g.out.span(lone).chunk].ts[0]
	g, _ = g.Apply(empty)
	// Rewrite the hub's long list until the out direction evicts the
	// chunk lone's list was in.
	evicted := func() bool {
		for _, c := range g.out.chunks {
			if len(c.ts) > 0 && &c.ts[0] == loneChunk {
				return false
			}
		}
		return true
	}
	for i := 0; !evicted(); i++ {
		if i > 200 {
			t.Fatal("the out direction never evicted lone's chunk")
		}
		g, _ = g.Apply(Batch{
			Add: []Edge{{hub, VertexID(i % n), 9}},
			Del: []Edge{{From: hub, To: VertexID(i % n)}},
		})
	}
	requireCounts(t, &g.out, "compacted")
	if ts, ws := g.OutNeighbors(lone); len(ts) != 0 || len(ws) != 0 || g.OutDegree(lone) != 0 {
		t.Fatalf("emptied list reads %v %v", ts, ws)
	}
	for v := 0; v < 40; v++ {
		if g.HasEdge(lone, VertexID(v)) {
			t.Fatalf("edge (%d,%d) survived its deletion", lone, v)
		}
	}
	requireSameGraph(t, g, MustBuild(n, edgesOf(g)), "compacted")
	// And the emptied list still takes new edges.
	g, _ = g.Apply(Batch{Add: []Edge{{lone, 3, 2}}})
	if ts, _ := g.OutNeighbors(lone); !slices.Equal(ts, []VertexID{3}) {
		t.Fatalf("lone after re-adding reads %v", ts)
	}
}
