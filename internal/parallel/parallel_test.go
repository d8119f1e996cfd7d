package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 511, 512, 513, 100_000} {
		seen := make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForWorkerZeroGrainDefaults(t *testing.T) {
	n := 2000
	var sum atomic.Int64
	ForWorker(n, 0, func(_, start, end int) { sum.Add(int64(end - start)) })
	if got := sum.Load(); got != int64(n) {
		t.Fatalf("visited %d indices, want %d", got, n)
	}
}

func TestForWorkerDisjointCover(t *testing.T) {
	n := 54321
	seen := make([]int32, n)
	ForWorker(n, 100, func(_, start, end int) {
		if start < 0 || end > n || start > end {
			t.Errorf("bad range [%d,%d)", start, end)
			return
		}
		for i := start; i < end; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForWorkerIDsInRange(t *testing.T) {
	n := 20_000
	max := Workers()
	var bad atomic.Int64
	ForWorker(n, 64, func(worker, start, end int) {
		if worker < 0 || worker >= max {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("worker ids escaped [0,%d)", max)
	}
}

// TestForWorkerChunksStartOnGrain: every chunk starts at a multiple of
// grain and only the last one is short. The engine's one-writer-per-word
// rule for bitsets rests on this: with a grain of whole words, no two
// workers ever write the same word.
func TestForWorkerChunksStartOnGrain(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		withProcs(t, procs, func() {
			for _, c := range []struct{ n, grain int }{{24, 8}, {100, 512}, {1500, 512}, {54321, 100}, {100_000, DefaultGrain}} {
				var bad atomic.Int64
				ForWorker(c.n, c.grain, func(_, start, end int) {
					if start%c.grain != 0 || (end != c.n && end-start != c.grain) {
						bad.Add(1)
					}
				})
				if bad.Load() != 0 {
					t.Errorf("GOMAXPROCS %d, n=%d grain=%d: %d chunks off the grain", procs, c.n, c.grain, bad.Load())
				}
			}
		})
	}
}

func TestForNegativeN(t *testing.T) {
	called := false
	For(-5, func(i int) { called = true })
	if called {
		t.Fatal("body called for negative n")
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	ForWorker(100_000, 128, func(worker, start, end int) {
		c.Add(worker, int64(end-start))
	})
	if got := c.Sum(); got != 100_000 {
		t.Fatalf("counter sum = %d, want 100000", got)
	}
}

// withProcs runs fn under an inflated GOMAXPROCS so the worker-spawning
// paths execute even on single-CPU machines (concurrency without
// parallelism still schedules all goroutines).
func withProcs(t *testing.T, procs int, fn func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

func TestForMultiProcCoversAllIndices(t *testing.T) {
	withProcs(t, 8, func() {
		n := 100_000
		seen := make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("index %d visited %d times", i, c)
			}
		}
	})
}

func TestForWorkerMultiProc(t *testing.T) {
	withProcs(t, 8, func() {
		c := NewCounter()
		n := 80_000
		ForWorker(n, 64, func(worker, start, end int) {
			if worker < 0 || worker >= Workers() {
				t.Errorf("worker id %d out of range", worker)
			}
			c.Add(worker, int64(end-start))
		})
		if c.Sum() != int64(n) {
			t.Fatalf("sum = %d, want %d", c.Sum(), n)
		}
	})
}
