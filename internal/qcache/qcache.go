// Package qcache memoizes top-k rankings over immutable result
// snapshots, keyed on the snapshot generation. A point read is not
// memoized: indexing the snapshot's values is cheaper than any lookup.
//
// The design leans entirely on the engine's BSP publication contract: a
// ResultSnapshot never changes after it is published, so a derived
// result computed against generation g is valid forever. The cache
// therefore has zero invalidation logic — entries are only ever dropped
// for capacity (least-recently-used within a byte budget) or because
// their generation fell out of the engine's history ring (DropBelow,
// wired to retention by the serving facade). A hit and a recompute are
// observably identical by construction.
//
// One cache serves one engine's snapshots: keys are (generation, k), so
// mixing snapshots from different engines in one cache would alias. All
// methods are safe for concurrent use.
package qcache

import (
	"cmp"
	"container/list"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Key identifies one memoized derived read.
type Key struct {
	// Gen is the snapshot generation the result was derived from.
	Gen uint64
	// Arg is the query's argument: TopK's k.
	Arg uint64
}

// entry is one cached result with its approximate heap cost.
type entry struct {
	key   Key
	value any
	bytes int64
}

// Cache is a budgeted, generation-keyed memo table. Construct with New;
// a nil *Cache is valid and simply computes every query uncached.
type Cache struct {
	budget int64
	met    metrics

	mu      sync.Mutex
	bytes   int64
	lru     *list.List // front = most recently used; values are *entry
	entries map[Key]*list.Element
}

// metrics holds the cache's handles; zero value = instrumentation off.
type metrics struct {
	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	entries   *obs.Gauge
	bytes     *obs.Gauge
}

func newMetrics(r *obs.Registry) metrics {
	if r == nil {
		return metrics{}
	}
	return metrics{
		hits: r.Counter("graphbolt_qcache_hits_total",
			"Derived-query reads served from the per-generation cache."),
		misses: r.Counter("graphbolt_qcache_misses_total",
			"Derived-query reads that had to compute their result."),
		evictions: r.Counter("graphbolt_qcache_evictions_total",
			"Cached results dropped for capacity or generation retirement."),
		entries: r.Gauge("graphbolt_qcache_entries",
			"Derived results currently cached."),
		bytes: r.Gauge("graphbolt_qcache_bytes",
			"Approximate heap bytes held by cached derived results."),
	}
}

// RegisterMetrics pre-creates the cache metric set in r so the
// exposition endpoint shows every series (at zero) before the first
// cache is constructed. Idempotent.
func RegisterMetrics(r *obs.Registry) {
	newMetrics(r)
}

// New creates a cache bounded to roughly budgetBytes of derived
// results. Metrics, when reg is non-nil, are registered there. A
// non-positive budget returns nil — the uncached-but-valid Cache.
func New(budgetBytes int64, reg *obs.Registry) *Cache {
	if budgetBytes <= 0 {
		return nil
	}
	return &Cache{
		budget:  budgetBytes,
		met:     newMetrics(reg),
		lru:     list.New(),
		entries: make(map[Key]*list.Element),
	}
}

// Do returns the memoized result for key, calling compute on a miss.
// compute returns the result and its approximate heap cost in bytes.
// Results larger than the whole budget are returned but not cached. On
// a nil cache Do just computes. Concurrent misses on the same key may
// compute twice; the first insert wins, keeping reads of one key
// referentially consistent.
func (c *Cache) Do(key Key, compute func() (any, int64)) any {
	if c == nil {
		v, _ := compute()
		return v
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		c.met.hits.Inc()
		return el.Value.(*entry).value
	}
	c.mu.Unlock()
	c.met.misses.Inc()

	v, cost := compute()
	if cost > c.budget {
		return v
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// Lost the race: return the first insert so every reader of this
		// key sees the same result value.
		c.lru.MoveToFront(el)
		return el.Value.(*entry).value
	}
	c.entries[key] = c.lru.PushFront(&entry{key: key, value: v, bytes: cost})
	c.bytes += cost
	for c.bytes > c.budget {
		c.evictLocked(c.lru.Back())
	}
	c.publishLocked()
	return v
}

// evictLocked removes one entry. c.mu must be held.
func (c *Cache) evictLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.bytes
	c.met.evictions.Inc()
}

// publishLocked refreshes the size gauges. c.mu must be held.
func (c *Cache) publishLocked() {
	c.met.entries.Set(float64(len(c.entries)))
	c.met.bytes.Set(float64(c.bytes))
}

// DropBelow evicts every entry derived from a generation older than
// gen. The serving facade calls this as the history ring advances, so
// cache lifetime tracks snapshot retention exactly.
func (c *Cache) DropBelow(gen uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		if el.Value.(*entry).key.Gen < gen {
			c.evictLocked(el)
		}
	}
	c.publishLocked()
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the approximate heap bytes held.
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// VertexValue pairs a vertex with its value in some snapshot.
type VertexValue[V any] struct {
	Vertex graph.VertexID
	Value  V
}

// TopK returns the k highest-valued vertices of the snapshot, ties
// broken by ascending vertex id, memoized in c (which may be nil). A miss
// costs O(n log k): one pass over the values through a k-entry heap.
func TopK[V cmp.Ordered](c *Cache, s *core.ResultSnapshot[V], k int) []VertexValue[V] {
	if s == nil || k <= 0 {
		return nil
	}
	return c.Do(Key{Gen: s.Generation, Arg: uint64(k)}, func() (any, int64) {
		// before is the result order: value descending, vertex ascending.
		before := func(a, b VertexValue[V]) bool {
			if a.Value != b.Value {
				return a.Value > b.Value
			}
			return a.Vertex < b.Vertex
		}
		k := min(k, len(s.Values))
		// top holds the best k seen so far as a heap whose root ranks
		// last: the entry the next better candidate replaces.
		top := make([]VertexValue[V], k)
		for v, x := range s.Values[:k] {
			top[v] = VertexValue[V]{Vertex: graph.VertexID(v), Value: x}
		}
		siftDown := func(i int) {
			for {
				last := 2*i + 1 // becomes the child that ranks last
				if last >= k {
					return
				}
				if last+1 < k && before(top[last], top[last+1]) {
					last++
				}
				if !before(top[i], top[last]) {
					return
				}
				top[i], top[last] = top[last], top[i]
				i = last
			}
		}
		for i := k/2 - 1; i >= 0; i-- {
			siftDown(i)
		}
		for v := k; v < len(s.Values); v++ {
			if p := (VertexValue[V]{Vertex: graph.VertexID(v), Value: s.Values[v]}); before(p, top[0]) {
				top[0] = p
				siftDown(0)
			}
		}
		sort.Slice(top, func(i, j int) bool { return before(top[i], top[j]) })
		return top, int64(len(top))*24 + 48
	}).([]VertexValue[V])
}
