package partition

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

func mustNew(t testing.TB, n int, assign map[graph.VertexID]int) *Partitioner {
	t.Helper()
	p, err := New(n, assign)
	if err != nil {
		t.Fatalf("New(%d): %v", n, err)
	}
	return p
}

func randomEdges(rng *rand.Rand, n, count int) []graph.Edge {
	edges := make([]graph.Edge, count)
	for i := range edges {
		edges[i] = graph.Edge{
			From:   graph.VertexID(rng.Intn(n)),
			To:     graph.VertexID(rng.Intn(n)),
			Weight: float64(rng.Intn(9) + 1),
		}
	}
	return edges
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, nil); err == nil {
		t.Fatal("New(0) accepted")
	}
	if _, err := New(-3, nil); err == nil {
		t.Fatal("New(-3) accepted")
	}
	if _, err := New(2, map[graph.VertexID]int{4: 2}); err == nil {
		t.Fatal("out-of-range explicit assignment accepted")
	}
	if _, err := New(2, map[graph.VertexID]int{4: -1}); err == nil {
		t.Fatal("negative explicit assignment accepted")
	}
}

// Ownership is a pure function: stable across calls, across instances,
// and always in range. Explicit assignments override the hash and are
// copied (mutating the caller's map afterwards changes nothing).
func TestOwnerDeterministic(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 8, 13} {
		a := mustNew(t, shards, nil)
		b := mustNew(t, shards, nil)
		for v := 0; v < 2000; v++ {
			s := a.Owner(graph.VertexID(v))
			if s < 0 || s >= shards {
				t.Fatalf("shards=%d: Owner(%d) = %d out of range", shards, v, s)
			}
			if s2 := a.Owner(graph.VertexID(v)); s2 != s {
				t.Fatalf("shards=%d: Owner(%d) unstable: %d then %d", shards, v, s, s2)
			}
			if s2 := b.Owner(graph.VertexID(v)); s2 != s {
				t.Fatalf("shards=%d: Owner(%d) differs across instances: %d vs %d", shards, v, s, s2)
			}
		}
	}

	assign := map[graph.VertexID]int{7: 3, 8: 0}
	p := mustNew(t, 4, assign)
	if got := p.Owner(7); got != 3 {
		t.Fatalf("explicit Owner(7) = %d, want 3", got)
	}
	if got := p.Owner(8); got != 0 {
		t.Fatalf("explicit Owner(8) = %d, want 0", got)
	}
	assign[7] = 1 // the partitioner copied the map
	if got := p.Owner(7); got != 3 {
		t.Fatalf("Owner(7) = %d after caller mutated assign map, want 3", got)
	}
}

// The hash spreads vertices over shards: no shard owns everything (or
// nothing) on a reasonably sized ID range.
func TestOwnerSpread(t *testing.T) {
	const n = 4096
	for _, shards := range []int{2, 4, 8} {
		p := mustNew(t, shards, nil)
		counts := make([]int, shards)
		for v := 0; v < n; v++ {
			counts[p.Owner(graph.VertexID(v))]++
		}
		want := n / shards
		for s, c := range counts {
			if c < want/2 || c > want*2 {
				t.Errorf("shards=%d: shard %d owns %d of %d vertices (expected near %d)", shards, s, c, n, want)
			}
		}
	}
}

// checkSplit asserts the three splitter properties for one batch:
// every edge lands on exactly one shard (its EdgeOwner), per-shard
// relative order is preserved, and recombining the sub-batches yields
// exactly the input edges.
func checkSplit(t testing.TB, p *Partitioner, b graph.Batch) {
	t.Helper()
	subs := p.Split(b)
	if len(subs) != p.Shards() {
		t.Fatalf("Split returned %d sub-batches for %d shards", len(subs), p.Shards())
	}
	check := func(kind string, in []graph.Edge, side func(graph.Batch) []graph.Edge) {
		total := 0
		for s, sub := range subs {
			for _, e := range side(sub) {
				if own := p.EdgeOwner(e); own != s {
					t.Fatalf("%s edge %v landed on shard %d, owner is %d", kind, e, s, own)
				}
			}
			total += len(side(sub))
		}
		if total != len(in) {
			t.Fatalf("%s: %d edges in, %d across sub-batches", kind, len(in), total)
		}
		// Replaying the input and popping each edge from its owner's
		// sub-batch front checks order preservation and multiset
		// equality at once.
		next := make([]int, len(subs))
		for i, e := range in {
			s := p.EdgeOwner(e)
			es := side(subs[s])
			if next[s] >= len(es) {
				t.Fatalf("%s: shard %d exhausted at input edge %d", kind, s, i)
			}
			if es[next[s]] != e {
				t.Fatalf("%s: shard %d position %d = %v, want %v (order not preserved)",
					kind, s, next[s], es[next[s]], e)
			}
			next[s]++
		}
	}
	check("add", b.Add, func(s graph.Batch) []graph.Edge { return s.Add })
	check("del", b.Del, func(s graph.Batch) []graph.Edge { return s.Del })
}

func TestSplitProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		shards := 1 + rng.Intn(8)
		var assign map[graph.VertexID]int
		if rng.Intn(2) == 0 {
			assign = map[graph.VertexID]int{graph.VertexID(rng.Intn(64)): rng.Intn(shards)}
		}
		p := mustNew(t, shards, assign)
		b := graph.Batch{
			Add: randomEdges(rng, 64, rng.Intn(40)),
			Del: randomEdges(rng, 64, rng.Intn(20)),
		}
		checkSplit(t, p, b)
	}
}

// Split must not alias the input: mutating a sub-batch cannot corrupt
// the caller's slices.
func TestSplitCopies(t *testing.T) {
	p := mustNew(t, 1, nil)
	b := graph.Batch{Add: []graph.Edge{{From: 0, To: 1, Weight: 1}}}
	subs := p.Split(b)
	subs[0].Add[0].Weight = 99
	if b.Add[0].Weight != 1 {
		t.Fatal("Split aliased the input batch")
	}
}

func FuzzSplit(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(10), uint8(5))
	f.Add(int64(7), uint8(1), uint8(0), uint8(0))
	f.Add(int64(99), uint8(8), uint8(63), uint8(63))
	f.Fuzz(func(t *testing.T, seed int64, shards, adds, dels uint8) {
		n := int(shards)%8 + 1
		rng := rand.New(rand.NewSource(seed))
		p := mustNew(t, n, nil)
		b := graph.Batch{
			Add: randomEdges(rng, 128, int(adds)),
			Del: randomEdges(rng, 128, int(dels)),
		}
		checkSplit(t, p, b)
	})
}

// SplitGraph partitions the edge multiset exactly: every shard graph
// keeps the full vertex numbering and only its own edges, and the
// shards' edges together are g's.
func TestSplitGraphUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := graph.Build(64, randomEdges(rng, 64, 300))
	if err != nil {
		t.Fatal(err)
	}
	want := g.Edges(nil)
	for _, shards := range []int{1, 2, 4, 7} {
		p := mustNew(t, shards, nil)
		parts, err := p.SplitGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		var union []graph.Edge
		for s, sg := range parts {
			if sg.NumVertices() != g.NumVertices() {
				t.Fatalf("shard %d graph has %d vertices, want %d", s, sg.NumVertices(), g.NumVertices())
			}
			for _, e := range sg.Edges(nil) {
				if p.EdgeOwner(e) != s {
					t.Fatalf("shard %d graph holds foreign edge %v", s, e)
				}
				union = append(union, e)
			}
		}
		// Build keeps adjacency in canonical (target, weight) order and
		// Edges walks sources in order, so the sorted concatenation
		// compares directly with g's edge list.
		slices.SortFunc(union, func(a, b graph.Edge) int {
			return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To), cmp.Compare(a.Weight, b.Weight))
		})
		if !slices.Equal(union, want) {
			t.Fatalf("shards=%d: shard edges (%d) are not g's edges (%d)", shards, len(union), len(want))
		}
	}
}
