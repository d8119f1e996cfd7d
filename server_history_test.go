package graphbolt_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	graphbolt "repro"
)

// historyServer builds a PageRank server retaining `retain` generations
// with a query cache, streams `batches` one-edge batches, and returns
// it with its metrics registry.
func historyServer(t *testing.T, retain, batches int, cacheBytes int64) (*graphbolt.Server[float64, float64], *graphbolt.MetricsRegistry) {
	t.Helper()
	reg := graphbolt.NewMetricsRegistry()
	g, err := graphbolt.BuildGraph(5, []graphbolt.Edge{
		{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 1}, {From: 2, To: 0, Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := graphbolt.NewEngine[float64, float64](g, graphbolt.NewPageRank(),
		graphbolt.Options{Retain: retain, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv := graphbolt.NewServer(eng, graphbolt.ServerOptions{
		// One generation per submitted batch, so the test can address
		// them deterministically.
		DisableCoalescing: true,
		QueryCacheBytes:   cacheBytes,
		Metrics:           reg,
	})
	ctx := context.Background()
	for i := 0; i < batches; i++ {
		b := graphbolt.Batch{Add: []graphbolt.Edge{
			{From: graphbolt.VertexID(i % 5), To: graphbolt.VertexID((i + 2) % 5), Weight: 1},
		}}
		if _, err := srv.SubmitWait(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { srv.Close(context.Background()) })
	return srv, reg
}

func TestServerSnapshotAt(t *testing.T) {
	srv, _ := historyServer(t, 4, 6, 0) // generations 1..7, retaining 4..7
	oldest, newest := srv.RetainedGenerations()
	if oldest != 4 || newest != 7 {
		t.Fatalf("retained window [%d, %d], want [4, 7]", oldest, newest)
	}
	for gen := oldest; gen <= newest; gen++ {
		s, err := srv.SnapshotAt(gen)
		if err != nil {
			t.Fatalf("SnapshotAt(%d): %v", gen, err)
		}
		if s.Generation != gen {
			t.Fatalf("SnapshotAt(%d).Generation = %d", gen, s.Generation)
		}
	}
	if _, err := srv.SnapshotAt(2); !errors.Is(err, graphbolt.ErrGenerationNotRetained) {
		t.Fatalf("SnapshotAt(evicted) = %v, want ErrGenerationNotRetained", err)
	}
}

func TestServerQueryCache(t *testing.T) {
	srv, reg := historyServer(t, 8, 3, 1<<20)
	c := srv.Cache()
	if c == nil {
		t.Fatal("Cache() = nil with QueryCacheBytes set")
	}
	snap := srv.Snapshot()
	first := graphbolt.TopK(c, snap, 3)
	second := graphbolt.TopK(c, snap, 3) // hit
	uncached := graphbolt.TopK(nil, snap, 3)
	if len(first) != 3 || len(second) != 3 {
		t.Fatalf("TopK sizes %d, %d, want 3", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] || first[i] != uncached[i] {
			t.Fatalf("TopK[%d]: fill %v, hit %v, uncached %v", i, first[i], second[i], uncached[i])
		}
	}
	if v, ok := graphbolt.VertexValueAt(c, snap, 1); !ok || v != snap.Values[1] {
		t.Fatalf("VertexValueAt = %v, %v; want %v, true", v, ok, snap.Values[1])
	}
	m := reg.Snapshot()
	if m.Counters["graphbolt_qcache_hits_total"] < 1 {
		t.Fatalf("hits = %d, want >= 1", m.Counters["graphbolt_qcache_hits_total"])
	}
	if m.Counters["graphbolt_qcache_misses_total"] < 2 {
		t.Fatalf("misses = %d, want >= 2", m.Counters["graphbolt_qcache_misses_total"])
	}
	// The hit/miss series must be visible on the exposition endpoint.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"graphbolt_qcache_hits_total", "graphbolt_qcache_misses_total", "graphbolt_qcache_bytes"} {
		if !strings.Contains(sb.String(), name) {
			t.Fatalf("/metrics missing %s", name)
		}
	}
}

// TestServerCacheFollowsRetention proves cache eviction tracks the
// history ring: entries for generations SnapshotAt can no longer serve
// are dropped by the apply loop's DropBelow hook.
func TestServerCacheFollowsRetention(t *testing.T) {
	srv, _ := historyServer(t, 2, 0, 1<<20)
	c := srv.Cache()
	gen := srv.Generation()
	graphbolt.TopK(c, srv.Snapshot(), 2)
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.Len())
	}
	ctx := context.Background()
	// Two more generations push gen 1 out of the depth-2 ring; its
	// cached entry must go with it.
	for i := 0; i < 2; i++ {
		b := graphbolt.Batch{Add: []graphbolt.Edge{{From: 3, To: 4, Weight: 1}}}
		if _, err := srv.SubmitWait(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	// Tickets resolve before the apply hook that evicts the cache runs;
	// Close returns once the loop goroutine, hook included, has exited.
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SnapshotAt(gen); !errors.Is(err, graphbolt.ErrGenerationNotRetained) {
		t.Fatalf("generation %d should be evicted, got %v", gen, err)
	}
	if c.Len() != 0 {
		t.Fatalf("cache still holds %d entries for evicted generations", c.Len())
	}
}

func TestServerNoCacheByDefault(t *testing.T) {
	srv, _ := historyServer(t, 1, 0, 0)
	if srv.Cache() != nil {
		t.Fatal("Cache() != nil with QueryCacheBytes 0")
	}
	// The nil cache is a valid argument everywhere.
	if got := graphbolt.TopK(srv.Cache(), srv.Snapshot(), 2); len(got) != 2 {
		t.Fatalf("TopK over nil cache returned %d results", len(got))
	}
}
