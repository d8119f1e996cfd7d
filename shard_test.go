package graphbolt_test

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	graphbolt "repro"
)

// roundRobinAssign pins every vertex in [0, n) to shard v % shards so
// the tests control ownership exactly (no dependence on the hash).
func roundRobinAssign(n, shards int) (map[graphbolt.VertexID]int, [][]graphbolt.VertexID) {
	assign := make(map[graphbolt.VertexID]int, n)
	pools := make([][]graphbolt.VertexID, shards)
	for v := 0; v < n; v++ {
		s := v % shards
		assign[graphbolt.VertexID(v)] = s
		pools[s] = append(pools[s], graphbolt.VertexID(v))
	}
	return assign, pools
}

// shardMirror tracks the edge multiset the streamed batches should have
// produced, independently of every engine — the same mirror semantics
// difftest uses: deletions match pre-batch edges keyed by (From, To)
// with the request weight ignored, consuming parallel instances in
// ascending canonical order.
type shardMirror struct {
	n     int
	edges []graphbolt.Edge
}

func sortEdgeKeys(es []graphbolt.Edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		if es[i].To != es[j].To {
			return es[i].To < es[j].To
		}
		return es[i].Weight < es[j].Weight
	})
}

func (m shardMirror) apply(b graphbolt.Batch) shardMirror {
	n := m.n
	for _, e := range b.Add {
		if int(e.From)+1 > n {
			n = int(e.From) + 1
		}
		if int(e.To)+1 > n {
			n = int(e.To) + 1
		}
	}
	old := append([]graphbolt.Edge(nil), m.edges...)
	sortEdgeKeys(old)
	want := make(map[[2]graphbolt.VertexID]int)
	for _, d := range b.Del {
		want[[2]graphbolt.VertexID{d.From, d.To}]++
	}
	out := make([]graphbolt.Edge, 0, len(old)+len(b.Add))
	for _, e := range old {
		k := [2]graphbolt.VertexID{e.From, e.To}
		if want[k] > 0 {
			want[k]--
			continue
		}
		out = append(out, e)
	}
	out = append(out, b.Add...)
	return shardMirror{n: n, edges: out}
}

// closedEdges draws count edges whose endpoints share an owner: exact
// sharded/single-loop equivalence holds for partition-closed streams
// (a cross-owner edge would make one shard's out-degrees and another's
// in-neighbor values diverge from the union graph's).
func closedEdges(rng *rand.Rand, pools [][]graphbolt.VertexID, count int) []graphbolt.Edge {
	edges := make([]graphbolt.Edge, count)
	for i := range edges {
		p := pools[rng.Intn(len(pools))]
		edges[i] = graphbolt.Edge{
			From:   p[rng.Intn(len(p))],
			To:     p[rng.Intn(len(p))],
			Weight: float64(rng.Intn(6) + 1),
		}
	}
	return edges
}

// randomClosedBatch derives the next batch from the mirror alone.
// Roughly a quarter of batches confine themselves to one shard's pool
// (single-shard applies); the rest mix pools so most
// batches fan out over several shards.
func randomClosedBatch(rng *rand.Rand, m shardMirror, pools [][]graphbolt.VertexID) graphbolt.Batch {
	var b graphbolt.Batch
	single := rng.Intn(4) == 0
	fixed := rng.Intn(len(pools))
	for i := 0; i < 1+rng.Intn(8); i++ {
		p := pools[fixed]
		if !single {
			p = pools[rng.Intn(len(pools))]
		}
		b.Add = append(b.Add, graphbolt.Edge{
			From:   p[rng.Intn(len(p))],
			To:     p[rng.Intn(len(p))],
			Weight: float64(rng.Intn(6) + 1),
		})
	}
	for i := 0; i < rng.Intn(6) && len(m.edges) > 0; i++ {
		e := m.edges[rng.Intn(len(m.edges))]
		b.Del = append(b.Del, graphbolt.Edge{From: e.From, To: e.To})
	}
	return b
}

// runShardEquivalence is the differential harness behind the sharded
// acceptance tests: it streams `batches` randomized partition-closed
// batches through an N-shard server and, at every Sync checkpoint,
// verifies the merged snapshot against the independent mirror — graph
// structure edge-for-edge, and values against a from-scratch ModeReset
// engine on the reconstructed graph (the paper's §2.2 equivalence,
// extended across the cross-shard barrier). Run under -race.
func runShardEquivalence(t *testing.T, shards int, seed int64,
	newProg func() graphbolt.Program[float64, float64], maxIter int, tol float64) {
	t.Helper()
	const (
		n       = 60
		batches = 110
	)
	rng := rand.New(rand.NewSource(seed))
	assign, pools := roundRobinAssign(n, shards)
	mirror := shardMirror{n: n, edges: closedEdges(rng, pools, 3*n)}

	g, err := graphbolt.BuildGraph(n, append([]graphbolt.Edge(nil), mirror.edges...))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := graphbolt.NewEngine[float64, float64](g, newProg(),
		graphbolt.Options{MaxIterations: maxIter})
	if err != nil {
		t.Fatal(err)
	}
	srv := graphbolt.NewServer(eng, graphbolt.ServerOptions{
		Shards:      shards,
		ShardAssign: assign,
	})
	ctx := context.Background()
	defer srv.Close(ctx)

	if got := srv.Shards(); got != shards {
		t.Fatalf("Shards() = %d, want %d", got, shards)
	}

	verify := func(after int) {
		t.Helper()
		snap, err := srv.Sync(ctx)
		if err != nil {
			t.Fatalf("Sync after batch %d: %v", after, err)
		}
		if snap.Graph.NumVertices() != mirror.n {
			t.Fatalf("batch %d: merged graph has %d vertices, mirror %d",
				after, snap.Graph.NumVertices(), mirror.n)
		}
		got := snap.Graph.Edges(nil)
		exp := append([]graphbolt.Edge(nil), mirror.edges...)
		sortEdgeKeys(got)
		sortEdgeKeys(exp)
		if len(got) != len(exp) {
			t.Fatalf("batch %d: merged graph has %d edges, mirror %d", after, len(got), len(exp))
		}
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("batch %d: merged edge[%d] = %+v, mirror has %+v", after, i, got[i], exp[i])
			}
		}
		refG, err := graphbolt.BuildGraph(mirror.n, append([]graphbolt.Edge(nil), mirror.edges...))
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := graphbolt.NewEngine[float64, float64](refG, newProg(),
			graphbolt.Options{Mode: graphbolt.ModeReset, MaxIterations: maxIter})
		if err != nil {
			t.Fatal(err)
		}
		fresh.Run()
		ref := fresh.Values()
		if len(snap.Values) != len(ref) {
			t.Fatalf("batch %d: %d merged values vs %d from-scratch", after, len(snap.Values), len(ref))
		}
		for v := range snap.Values {
			// Exact match covers the ±Inf distances SSSP leaves on
			// unreachable vertices; the tolerance covers float drift.
			if g, w := snap.Values[v], ref[v]; g != w && !(math.Abs(g-w) <= tol) {
				t.Fatalf("batch %d: merged vs from-scratch: vertex %d: %v vs %v", after, v, g, w)
			}
		}
	}
	verify(0)

	for i := 0; i < batches; i++ {
		b := randomClosedBatch(rng, mirror, pools)
		mirror = mirror.apply(b)
		if _, err := srv.Submit(ctx, b); err != nil {
			t.Fatalf("Submit batch %d: %v", i+1, err)
		}
		if (i+1)%10 == 0 || i == batches-1 {
			verify(i + 1)
		}
	}
	if err := srv.Err(); err != nil {
		t.Fatalf("Err() after clean stream: %v", err)
	}
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestShardEquivalencePageRank proves the headline refactor claim for a
// decomposable (push) program: an N-shard server over a randomized
// partition-closed stream produces, at every checkpoint, exactly the
// values a from-scratch single-engine run produces.
func TestShardEquivalencePageRank(t *testing.T) {
	for _, shards := range []int{2, 4} {
		shards := shards
		t.Run(map[int]string{2: "N2", 4: "N4"}[shards], func(t *testing.T) {
			t.Parallel()
			runShardEquivalence(t, shards, int64(1000+shards),
				func() graphbolt.Program[float64, float64] { return graphbolt.NewPageRank() }, 6, 1e-6)
		})
	}
}

// TestShardEquivalenceSSSP proves the same for a non-decomposable
// (pull, min-aggregation) program, whose refinement path re-evaluates
// whole in-neighborhoods instead of retracting contributions.
func TestShardEquivalenceSSSP(t *testing.T) {
	for _, shards := range []int{2, 4} {
		shards := shards
		t.Run(map[int]string{2: "N2", 4: "N4"}[shards], func(t *testing.T) {
			t.Parallel()
			runShardEquivalence(t, shards, int64(2000+shards),
				func() graphbolt.Program[float64, float64] { return graphbolt.NewSSSP(0) }, 8, 1e-9)
		})
	}
}
