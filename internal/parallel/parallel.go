// Package parallel provides the shared-memory parallel execution
// primitives used throughout the GraphBolt engine: grained parallel-for
// loops with panic capture, and per-worker counters.
//
// The primitives intentionally mirror what a Ligra-style runtime needs:
// flat fork-join loops over vertex and edge ranges, with no allocation on
// the steady-state path. There are no locks here: the engine's kernels
// give every aggregate one writer per loop (see internal/core/edgemap.go).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultGrain is the minimum number of loop indices a worker claims at a
// time. Small enough to balance skewed per-index work (high-degree
// vertices), large enough to amortize the atomic fetch-add per claim.
const DefaultGrain = 512

// Workers returns the degree of parallelism loops run at, which is also
// the upper bound on the worker ids ForWorker passes to its body. Always
// ≥ 1.
func Workers() int { return runtime.GOMAXPROCS(0) }

// For runs body(i) for every i in [0, n) across Workers() goroutines
// using dynamic chunk self-scheduling with DefaultGrain granularity. It
// blocks until every index has been processed. For small n it runs
// inline.
func For(n int, body func(i int)) {
	ForWorker(n, DefaultGrain, func(_, start, end int) {
		for i := start; i < end; i++ {
			body(i)
		}
	})
}

// ForWorker runs body(worker, start, end) over disjoint subranges covering
// [0, n), letting the body iterate a contiguous chunk itself, and passes a
// dense worker id in [0, Workers()) so the body can index per-worker state
// without false sharing on a shared counter. It is the one chunk
// self-scheduler behind every loop in this package.
//
// A panic in the body is recovered inside the worker (an unrecovered
// panic in a spawned goroutine would kill the process), the remaining
// chunks are cancelled, and after all workers drain the first panic is
// re-raised on the calling goroutine as a *PanicError carrying the
// offending index range.
func ForWorker(n, grain int, body func(worker, start, end int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	p := Workers()
	m := loopMet.Load()
	var box panicBox
	if p == 1 || n <= grain {
		box.run(0, n, func() { body(0, 0, n) })
		m.observeInline()
		box.rethrow()
		return
	}
	if needed := (n + grain - 1) / grain; p > needed {
		p = needed
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var ls loopStat
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func(worker int) {
			defer wg.Done()
			var claims int64
			if m != nil {
				defer func() { ls.record(claims) }()
			}
			for !box.tripped.Load() {
				start := int(next.Add(int64(grain))) - grain
				if start >= n {
					return
				}
				claims++
				end := start + grain
				if end > n {
					end = n
				}
				box.run(start, end, func() { body(worker, start, end) })
			}
		}(w)
	}
	wg.Wait()
	m.observeLoop(p, &ls)
	box.rethrow()
}
