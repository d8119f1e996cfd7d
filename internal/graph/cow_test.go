package graph

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// inEdgesOf lists the graph through its in direction, as real edges.
func inEdgesOf(g *Graph) []Edge {
	var es []Edge
	for v := 0; v < g.NumVertices(); v++ {
		us, ws := g.InNeighbors(VertexID(v))
		for i, u := range us {
			es = append(es, Edge{From: u, To: VertexID(v), Weight: ws[i]})
		}
	}
	return es
}

// requireSameGraph fails unless got and want agree list for list, in
// list order, in both directions.
func requireSameGraph(t *testing.T, got, want *Graph, what string) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: V=%d E=%d, want V=%d E=%d", what,
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := 0; v < want.NumVertices(); v++ {
		vid := VertexID(v)
		gt, gw := got.OutNeighbors(vid)
		wt, ww := want.OutNeighbors(vid)
		if !slices.Equal(gt, wt) || !slices.Equal(gw, ww) {
			t.Fatalf("%s: out(%d) = %v %v, want %v %v", what, v, gt, gw, wt, ww)
		}
		if got.OutDegree(vid) != len(wt) {
			t.Fatalf("%s: OutDegree(%d) = %d, want %d", what, v, got.OutDegree(vid), len(wt))
		}
		gt, gw = got.InNeighbors(vid)
		wt, ww = want.InNeighbors(vid)
		if !slices.Equal(gt, wt) || !slices.Equal(gw, ww) {
			t.Fatalf("%s: in(%d) = %v %v, want %v %v", what, v, gt, gw, wt, ww)
		}
		if got.InDegree(vid) != len(wt) {
			t.Fatalf("%s: InDegree(%d) = %d, want %d", what, v, got.InDegree(vid), len(wt))
		}
	}
}

// randomBatch draws additions (a few beyond the current vertex range,
// from a small weight alphabet so parallel edges and weight ties occur)
// and deletions, about half of which name existing edges.
func randomBatch(rng *rand.Rand, n int, edges []Edge, size, growth int) Batch {
	var b Batch
	for i := rng.Intn(size + 1); i > 0; i-- {
		b.Add = append(b.Add, Edge{
			From:   VertexID(rng.Intn(n + growth)),
			To:     VertexID(rng.Intn(n + growth)),
			Weight: float64(rng.Intn(4)) / 2,
		})
	}
	for i := rng.Intn(size + 1); i > 0; i-- {
		if len(edges) > 0 && rng.Intn(2) == 0 {
			e := edges[rng.Intn(len(edges))]
			b.Del = append(b.Del, Edge{From: e.From, To: e.To})
		} else {
			b.Del = append(b.Del, Edge{From: VertexID(rng.Intn(n + growth)), To: VertexID(rng.Intn(n))})
		}
	}
	return b
}

// TestChainedApplyKeepsEverySnapshot applies a long sequence of batches
// to a graph that spans several pages. After every step the new snapshot
// must equal a rebuild from the reference edge multiset in canonical
// order, the reported deletions must be the reference's in (source,
// target, weight) order, and every retained earlier snapshot must still
// list exactly the edges it had: a page or list shared between
// generations is never written.
func TestChainedApplyKeepsEverySnapshot(t *testing.T) {
	const steps, keep = 80, 6
	rng := rand.New(rand.NewSource(7))
	n := 4*pageSize + 17
	edges := make([]Edge, 1500)
	for i := range edges {
		edges[i] = Edge{VertexID(rng.Intn(n)), VertexID(rng.Intn(n)), float64(rng.Intn(4)) / 2}
	}
	g := MustBuild(n, edges)

	type retained struct {
		g       *Graph
		out, in []Edge
	}
	var kept []retained
	for step := 0; step < steps; step++ {
		kept = append(kept, retained{g, edgesOf(g), inEdgesOf(g)})
		if len(kept) > keep {
			kept = kept[1:]
		}

		batch := randomBatch(rng, n, edges, 30, 2)
		ng, res := g.Apply(batch)
		var gone []Edge
		n, edges, gone = referenceApply(n, edges, batch)
		requireSameGraph(t, ng, MustBuild(n, edges), "after apply")

		sortEdges(gone)
		if !slices.Equal(res.Deleted, gone) {
			t.Fatalf("step %d: Deleted = %v, want %v", step, res.Deleted, gone)
		}
		if !slices.Equal(res.Added, batch.Add) {
			t.Fatalf("step %d: Added = %v, want %v", step, res.Added, batch.Add)
		}
		if want := len(batch.Del) - len(gone); res.MissingDeletes != want {
			t.Fatalf("step %d: MissingDeletes = %d, want %d", step, res.MissingDeletes, want)
		}
		for i, k := range kept {
			if !slices.Equal(edgesOf(k.g), k.out) || !slices.Equal(inEdgesOf(k.g), k.in) {
				t.Fatalf("step %d: retained snapshot %d changed", step, i)
			}
		}
		g = ng
	}
	if g.NumVertices() < n || n <= 4*pageSize+17 {
		t.Fatalf("stream did not grow the vertex set (n=%d)", n)
	}
}

// TestApplySharesUntouchedPages pins the cost model: pages a batch does
// not name are the same pages in the next snapshot.
func TestApplySharesUntouchedPages(t *testing.T) {
	n := 8 * pageSize
	var edges []Edge
	for v := 0; v < n; v++ {
		edges = append(edges, Edge{VertexID(v), VertexID((v + 1) % n), 1})
	}
	g := MustBuild(n, edges)
	src, dst := VertexID(pageSize+3), VertexID(5*pageSize+1)
	ng, _ := g.Apply(Batch{
		Add: []Edge{{src, dst, 2}},
		Del: []Edge{{From: VertexID(2 * pageSize), To: VertexID(7 * pageSize)}}, // matches nothing
	})
	for pi := range g.out.pages {
		if shared, want := ng.out.pages[pi] == g.out.pages[pi], pi != int(src>>pageShift); shared != want {
			t.Errorf("out page %d shared = %v, want %v", pi, shared, want)
		}
		if shared, want := ng.in.pages[pi] == g.in.pages[pi], pi != int(dst>>pageShift); shared != want {
			t.Errorf("in page %d shared = %v, want %v", pi, shared, want)
		}
	}
}

func TestApplyGrowth(t *testing.T) {
	check := func(t *testing.T, n int, edges []Edge, batch Batch) {
		t.Helper()
		g := MustBuild(n, edges)
		before := edgesOf(g)
		ng, _ := g.Apply(batch)
		wantN, wantEdges, _ := referenceApply(n, edges, batch)
		requireSameGraph(t, ng, MustBuild(wantN, wantEdges), "grown")
		if g.NumVertices() != n || !slices.Equal(edgesOf(g), before) {
			t.Fatal("growth changed the receiver")
		}
		// Every vertex of the grown range answers, edges or not.
		for v := n; v < wantN; v++ {
			ng.OutNeighbors(VertexID(v))
			ng.InNeighbors(VertexID(v))
		}
	}
	t.Run("within the last page", func(t *testing.T) {
		check(t, pageSize-10, []Edge{{0, 1, 1}}, Batch{Add: []Edge{{VertexID(pageSize - 2), 0, 1}}})
	})
	t.Run("across a page boundary", func(t *testing.T) {
		check(t, pageSize-1, []Edge{{0, 1, 1}, {VertexID(pageSize - 2), 0, 3}},
			Batch{Add: []Edge{{VertexID(pageSize + 3), VertexID(pageSize - 2), 1}, {1, VertexID(2*pageSize + 1), 2}}})
	})
	t.Run("exactly to a page boundary", func(t *testing.T) {
		check(t, pageSize-1, []Edge{{0, 1, 1}}, Batch{Add: []Edge{{VertexID(pageSize - 1), 0, 1}}})
		check(t, pageSize, []Edge{{0, 1, 1}}, Batch{Add: []Edge{{VertexID(pageSize), 0, 1}}})
	})
	t.Run("sparse", func(t *testing.T) {
		n := 3*pageSize + 5
		check(t, n, []Edge{{0, 1, 1}, {VertexID(n - 1), 2, 1}},
			Batch{Add: []Edge{{VertexID(n + 1000), 0, 1}}, Del: []Edge{{From: 0, To: 1}}})
	})
	t.Run("from the empty graph", func(t *testing.T) {
		check(t, 0, nil, Batch{Add: []Edge{{VertexID(pageSize + 1), 0, 1}, {0, 0, 2}},
			Del: []Edge{{From: 3, To: 4}}})
	})
	t.Run("delete beyond the vertex range", func(t *testing.T) {
		g := MustBuild(3, []Edge{{0, 1, 1}})
		ng, res := g.Apply(Batch{Del: []Edge{{From: VertexID(10 * pageSize), To: 0}, {From: 0, To: 1}}})
		if ng.NumVertices() != 3 || ng.NumEdges() != 0 || res.MissingDeletes != 1 {
			t.Fatalf("V=%d E=%d missing=%d, want 3/0/1", ng.NumVertices(), ng.NumEdges(), res.MissingDeletes)
		}
	})
}

// TestRebuildIsInstanceExact: a graph that went through mutations and
// its rebuild from Edges (a checkpoint round trip) delete the same copies
// of parallel edges from then on.
func TestRebuildIsInstanceExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 2*pageSize + 3
	var edges []Edge
	g := MustBuild(n, nil)
	for step := 0; step < 30; step++ {
		g, _ = g.Apply(randomBatch(rng, n, edges, 25, 0))
		edges = edgesOf(g)
		re := MustBuild(g.NumVertices(), edges)
		requireSameGraph(t, re, g, "rebuilt")
		probe := randomBatch(rng, n, edges, 25, 0)
		a, ra := g.Apply(probe)
		b, rb := re.Apply(probe)
		requireSameGraph(t, b, a, "rebuilt then mutated")
		if !slices.Equal(ra.Deleted, rb.Deleted) {
			t.Fatalf("step %d: live graph deleted %v, rebuilt one %v", step, ra.Deleted, rb.Deleted)
		}
	}
}

// smallBatchCase is the serving shape the benchmarks and the allocation
// test share: a graph of m edges over m/10 vertices and one 20-edge batch
// (15 additions, 5 deletions of existing edges).
func smallBatchCase(m int) (*Graph, Batch) {
	n := m / 10
	edges := benchEdges(n, m)
	batch := Batch{Add: benchEdges(n, 20)[:15]}
	for _, e := range edges[:5] {
		batch.Del = append(batch.Del, Edge{From: e.From, To: e.To})
	}
	return MustBuild(n, edges), batch
}

func bytesPerApply(g *Graph, batch Batch) float64 {
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		g.Apply(batch)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestApplyAllocationIsBatchSized: what a small batch allocates is a
// small fraction of the graph and does not follow |E|.
func TestApplyAllocationIsBatchSized(t *testing.T) {
	g100, b100 := smallBatchCase(100_000)
	g400, b400 := smallBatchCase(400_000)
	at100, at400 := bytesPerApply(g100, b100), bytesPerApply(g400, b400)
	t.Logf("bytes per 20-edge Apply: %.0f at |E|=100k, %.0f at |E|=400k", at100, at400)
	// 12 bytes per edge per direction is the least a graph can occupy.
	if graphBytes := 24 * float64(g400.NumEdges()); at400 > graphBytes/10 {
		t.Errorf("a 20-edge batch on %d edges allocated %.0f bytes, over a tenth of the graph's %.0f",
			g400.NumEdges(), at400, graphBytes)
	}
	if at400 > 2*at100 {
		t.Errorf("bytes per batch scale with |E|: %.0f at 100k, %.0f at 400k", at100, at400)
	}
}

// TestReadersOfOldSnapshotsDuringApply runs under -race in `make race`:
// readers scan both directions of retained snapshots while the writer
// keeps deriving new ones from the newest. A write to anything an older
// snapshot can reach is a data race and, scanned, a wrong checksum.
func TestReadersOfOldSnapshotsDuringApply(t *testing.T) {
	batches := 300
	if testing.Short() {
		batches = 60
	}
	rng := rand.New(rand.NewSource(3))
	n := 6 * pageSize
	edges := make([]Edge, 4000)
	for i := range edges {
		edges[i] = Edge{VertexID(rng.Intn(n)), VertexID(rng.Intn(n)), float64(rng.Intn(8))}
	}
	checksum := func(g *Graph) (sum float64) {
		for v := 0; v < g.NumVertices(); v++ {
			ts, ws := g.OutNeighbors(VertexID(v))
			for i, u := range ts {
				sum += float64(u) + ws[i]
			}
			ts, ws = g.InNeighbors(VertexID(v))
			for i, u := range ts {
				sum -= float64(u) + 2*ws[i]
			}
		}
		return sum
	}
	type snap struct {
		g   *Graph
		sum float64
	}
	snaps := make(chan snap, 4) // a few generations in flight keeps old ones under scan while newer are derived
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range snaps {
				for pass := 0; pass < 3; pass++ {
					if got := checksum(s.g); got != s.sum {
						t.Errorf("snapshot with %d edges: checksum %v, was %v when taken", s.g.NumEdges(), got, s.sum)
						break // keep receiving: the writer blocks on a full channel
					}
				}
			}
		}()
	}
	g := MustBuild(n, edges)
	for i := 0; i < batches; i++ {
		snaps <- snap{g, checksum(g)}
		g, _ = g.Apply(randomBatch(rng, g.NumVertices(), edges, 20, 3))
	}
	close(snaps)
	wg.Wait()
}
