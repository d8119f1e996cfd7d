package parallel

import "sync/atomic"

// Counter is a padded per-worker counter set merged on read. It avoids the
// cache-line ping-pong a single atomic counter would suffer during edge
// sweeps, while still being safe to add to from ForWorker bodies.
type Counter struct {
	cells []counterCell
}

type counterCell struct {
	n int64
	_ [7]int64 // pad to a cache line
}

// NewCounter returns a counter with one cell per worker.
func NewCounter() *Counter {
	return &Counter{cells: make([]counterCell, Workers())}
}

// Add adds n to the worker's cell. worker must be in [0, Workers()).
func (c *Counter) Add(worker int, n int64) {
	atomic.AddInt64(&c.cells[worker].n, n)
}

// Sum returns the total across all cells.
func (c *Counter) Sum() int64 {
	var total int64
	for i := range c.cells {
		total += atomic.LoadInt64(&c.cells[i].n)
	}
	return total
}
