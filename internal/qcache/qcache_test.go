package qcache_test

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/qcache"
)

// buildSnapshots runs PageRank over a few random batches with retention
// on and returns every retained snapshot, oldest first.
func buildSnapshots(t *testing.T, seed uint64, batches int) []*core.ResultSnapshot[float64] {
	t.Helper()
	r := gen.NewRNG(seed)
	n := 8 + r.Intn(24)
	edges := make([]graph.Edge, 3*n)
	for i := range edges {
		edges[i] = graph.Edge{
			From:   graph.VertexID(r.Intn(n)),
			To:     graph.VertexID(r.Intn(n)),
			Weight: 1,
		}
	}
	eng, err := core.NewEngine[float64, float64](graph.MustBuild(n, edges),
		algorithms.NewPageRank(), core.Options{Retain: batches + 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	for i := 0; i < batches; i++ {
		b := graph.Batch{Add: []graph.Edge{{
			From:   graph.VertexID(r.Intn(n)),
			To:     graph.VertexID(r.Intn(n)),
			Weight: 1,
		}}}
		if _, err := eng.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	oldest, newest := eng.RetainedGenerations()
	var snaps []*core.ResultSnapshot[float64]
	for g := oldest; g <= newest; g++ {
		s, err := eng.SnapshotAt(g)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, s)
	}
	return snaps
}

// TestQuickCachedEqualsUncached is the hit-path correctness property:
// the cached answer — first read (fills) and second read (hits) — must
// deep-equal the uncached computation.
func TestQuickCachedEqualsUncached(t *testing.T) {
	check := func(seed uint64, k8 uint8) bool {
		snaps := buildSnapshots(t, seed, 3)
		c := qcache.New(1<<20, nil)
		k := 1 + int(k8)%16
		for _, s := range snaps {
			for pass := 0; pass < 2; pass++ { // pass 0 fills, pass 1 hits
				if got, want := qcache.TopK(c, s, k), qcache.TopK(nil, s, k); !reflect.DeepEqual(got, want) {
					t.Logf("seed %d gen %d pass %d: TopK(%d) cached %v uncached %v", seed, s.Generation, pass, k, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestTopKMatchesFullSort checks the k-heap against sorting everything:
// same entries in the same order (value descending, vertex ascending),
// on values drawn from a small alphabet so ties cross the cut, for k
// below, at and beyond the number of vertices.
func TestTopKMatchesFullSort(t *testing.T) {
	check := func(seed uint64, n8 uint8) bool {
		r := gen.NewRNG(seed)
		n := int(n8) % 70
		s := &core.ResultSnapshot[float64]{Generation: 1, Values: make([]float64, n)}
		for v := range s.Values {
			s.Values[v] = float64(r.Intn(6)) / 2
			if r.Intn(10) == 0 {
				s.Values[v] = math.Inf(1) // unreachable under SSSP
			}
		}
		want := make([]qcache.VertexValue[float64], n)
		for v, x := range s.Values {
			want[v] = qcache.VertexValue[float64]{Vertex: graph.VertexID(v), Value: x}
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].Value > want[j].Value })
		for _, k := range []int{1, 2, n / 2, n - 1, n, n + 1, 3 * n} {
			got := qcache.TopK(nil, s, k)
			if k <= 0 {
				if got != nil {
					t.Logf("seed %d n %d: TopK(%d) = %v, want nil", seed, n, k, got)
					return false
				}
				continue
			}
			if !reflect.DeepEqual(got, want[:min(k, n)]) {
				t.Logf("seed %d n %d: TopK(%d) = %v, want %v", seed, n, k, got, want[:min(k, n)])
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHitMissMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	snaps := buildSnapshots(t, 7, 2)
	c := qcache.New(1<<20, reg)
	s := snaps[len(snaps)-1]
	qcache.TopK(c, s, 5) // miss + fill
	qcache.TopK(c, s, 5) // hit
	qcache.TopK(c, s, 6) // different arg: miss
	m := reg.Snapshot()
	if got := m.Counters["graphbolt_qcache_hits_total"]; got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
	if got := m.Counters["graphbolt_qcache_misses_total"]; got != 2 {
		t.Fatalf("misses = %d, want 2", got)
	}
	if got := m.Gauges["graphbolt_qcache_entries"]; got != 2 {
		t.Fatalf("entries gauge = %v, want 2", got)
	}
	if m.Gauges["graphbolt_qcache_bytes"] <= 0 {
		t.Fatalf("bytes gauge = %v, want > 0", m.Gauges["graphbolt_qcache_bytes"])
	}
}

func TestBudgetEviction(t *testing.T) {
	reg := obs.NewRegistry()
	c := qcache.New(100, reg)
	for i := 0; i < 10; i++ {
		c.Do(qcache.Key{Gen: 1, Arg: uint64(i)}, func() (any, int64) { return i, 40 })
	}
	if got := c.Bytes(); got > 100 {
		t.Fatalf("cache holds %d bytes, budget 100", got)
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("cache holds %d entries, want 2 (2×40 ≤ 100 < 3×40)", got)
	}
	if got := reg.Snapshot().Counters["graphbolt_qcache_evictions_total"]; got != 8 {
		t.Fatalf("evictions = %d, want 8", got)
	}
	// A result larger than the whole budget is returned but not cached.
	v := c.Do(qcache.Key{Gen: 2}, func() (any, int64) { return "x", 1000 })
	if v != "x" {
		t.Fatalf("oversized compute returned %v", v)
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("oversized result was cached (len %d)", got)
	}
}

func TestLRUKeepsRecentlyUsed(t *testing.T) {
	c := qcache.New(100, nil)
	c.Do(qcache.Key{Gen: 1, Arg: 0}, func() (any, int64) { return 0, 40 })
	c.Do(qcache.Key{Gen: 1, Arg: 1}, func() (any, int64) { return 1, 40 })
	// Touch Arg 0 so Arg 1 is the LRU victim.
	c.Do(qcache.Key{Gen: 1, Arg: 0}, func() (any, int64) {
		t.Fatal("expected a hit")
		return nil, 0
	})
	c.Do(qcache.Key{Gen: 1, Arg: 2}, func() (any, int64) { return 2, 40 })
	recomputed := false
	c.Do(qcache.Key{Gen: 1, Arg: 0}, func() (any, int64) { recomputed = true; return 0, 40 })
	if recomputed {
		t.Fatal("recently used entry was evicted before the LRU one")
	}
	c.Do(qcache.Key{Gen: 1, Arg: 1}, func() (any, int64) { recomputed = true; return 1, 40 })
	if !recomputed {
		t.Fatal("LRU entry survived past the budget")
	}
}

func TestDropBelow(t *testing.T) {
	c := qcache.New(1<<20, nil)
	for g := uint64(1); g <= 5; g++ {
		c.Do(qcache.Key{Gen: g}, func() (any, int64) { return g, 16 })
	}
	c.DropBelow(4)
	if got := c.Len(); got != 2 {
		t.Fatalf("after DropBelow(4): %d entries, want 2 (gens 4, 5)", got)
	}
	for g := uint64(1); g <= 5; g++ {
		recomputed := false
		c.Do(qcache.Key{Gen: g}, func() (any, int64) { recomputed = true; return g, 16 })
		if kept := !recomputed; kept != (g >= 4) {
			t.Fatalf("gen %d cached = %v after DropBelow(4)", g, kept)
		}
	}
}

func TestNilCacheComputes(t *testing.T) {
	var c *qcache.Cache
	v := c.Do(qcache.Key{Gen: 1}, func() (any, int64) { return 42, 8 })
	if v != 42 {
		t.Fatalf("nil cache Do = %v, want 42", v)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatal("nil cache reports non-zero size")
	}
	c.DropBelow(7) // must not panic
	if got := qcache.New(0, nil); got != nil {
		t.Fatal("New(0) should return the nil (uncached) cache")
	}
}

// TestConcurrentReaders hammers one cache from many goroutines mixing
// hits, fills and DropBelow; run under -race this checks the locking,
// and every read must still equal the uncached computation.
func TestConcurrentReaders(t *testing.T) {
	snaps := buildSnapshots(t, 42, 6)
	c := qcache.New(1<<16, nil)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := snaps[(w+i)%len(snaps)]
				k := 1 + (w+i)%7
				if got, want := qcache.TopK(c, s, k), qcache.TopK(nil, s, k); !reflect.DeepEqual(got, want) {
					select {
					case errs <- fmt.Errorf("gen %d TopK(%d): cached %v uncached %v", s.Generation, k, got, want):
					default:
					}
					return
				}
				if i%50 == 0 {
					c.DropBelow(snaps[0].Generation + uint64(i%len(snaps)))
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}
