package graphbolt_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
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
	m := reg.Snapshot()
	if m.Counters["graphbolt_qcache_hits_total"] < 1 {
		t.Fatalf("hits = %d, want >= 1", m.Counters["graphbolt_qcache_hits_total"])
	}
	if m.Counters["graphbolt_qcache_misses_total"] != 1 {
		t.Fatalf("misses = %d, want 1", m.Counters["graphbolt_qcache_misses_total"])
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

// TestPointReadsBypassQueryCache: /v1/value indexes the snapshot, on a
// server and on a follower alike, each built with a query cache. Every
// in-range vertex answers with the bits of Snapshot().Values, the first
// vertex past the end answers 404, and the cache stays empty: no entry
// and no miss.
func TestPointReadsBypassQueryCache(t *testing.T) {
	srv, reg := historyServer(t, 4, 3, 1<<20)
	feng, err := graphbolt.NewEngine[float64, float64](srv.Snapshot().Graph, graphbolt.NewPageRank(), graphbolt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	feng.Run()
	freg := graphbolt.NewMetricsRegistry()
	// The follower is never started: its engine has run, and the read
	// path does not touch the stream.
	f, err := graphbolt.NewFollower(feng, nil, "http://127.0.0.1:1", graphbolt.FollowerOptions{
		QueryCacheBytes: 1 << 20,
		Metrics:         freg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		h     http.Handler
		snap  *graphbolt.ResultSnapshot[float64]
		cache *graphbolt.QueryCache
		reg   *graphbolt.MetricsRegistry
	}{
		{"server", graphbolt.QueryHandler(srv), srv.Snapshot(), srv.Cache(), reg},
		{"follower", graphbolt.FollowerQueryHandler(f), f.Snapshot(), f.Cache(), freg},
	} {
		if tc.cache == nil {
			t.Fatalf("%s: no query cache with QueryCacheBytes set", tc.name)
		}
		n := len(tc.snap.Values)
		for v := 0; v <= n; v++ {
			rec := httptest.NewRecorder()
			tc.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/value/"+strconv.Itoa(v), nil))
			if v == n {
				if rec.Code != http.StatusNotFound {
					t.Fatalf("%s: vertex %d of %d: status %d, want 404", tc.name, v, n, rec.Code)
				}
				continue
			}
			var got struct {
				Generation uint64  `json:"generation"`
				Value      float64 `json:"value"`
			}
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: vertex %d: status %d: %s", tc.name, v, rec.Code, rec.Body)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatalf("%s: vertex %d: %v", tc.name, v, err)
			}
			if got.Generation != tc.snap.Generation || math.Float64bits(got.Value) != math.Float64bits(tc.snap.Values[v]) {
				t.Fatalf("%s: vertex %d: %v at generation %d, snapshot has %v at %d",
					tc.name, v, got.Value, got.Generation, tc.snap.Values[v], tc.snap.Generation)
			}
		}
		if misses := tc.reg.Snapshot().Counters["graphbolt_qcache_misses_total"]; misses != 0 {
			t.Errorf("%s: %d query-cache misses after point reads, want 0", tc.name, misses)
		}
		if l := tc.cache.Len(); l != 0 {
			t.Errorf("%s: query cache holds %d entries after point reads, want 0", tc.name, l)
		}
	}
}
