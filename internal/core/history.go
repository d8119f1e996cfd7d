package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/parallel"
)

// ErrGenerationNotRetained reports a SnapshotAt/DiffSnapshots request
// for a generation the engine cannot serve: either it was evicted from
// the history ring (older than the retention depth), or it has not been
// published yet.
var ErrGenerationNotRetained = errors.New("core: generation not retained")

// HistoryRing retains the last K published result snapshots, addressable
// by generation. It exploits the same immutability that makes the
// current snapshot lock-free: a published ResultSnapshot never changes,
// so retention is just holding K pointers and point-in-time reads need
// no synchronization with the writer beyond one atomic load.
//
// Concurrency: Push is single-writer (the engine's publish path); At and
// Oldest are lock-free and safe from any goroutine. A reader racing a
// Push either sees the generation it asked for or observes it as already
// evicted — never a torn or mutated snapshot.
type HistoryRing[V any] struct {
	slots []atomic.Pointer[ResultSnapshot[V]]
}

// NewHistoryRing creates a ring retaining the last k generations (k >= 1).
func NewHistoryRing[V any](k int) *HistoryRing[V] {
	if k < 1 {
		k = 1
	}
	return &HistoryRing[V]{slots: make([]atomic.Pointer[ResultSnapshot[V]], k)}
}

// Cap returns the retention depth K.
func (r *HistoryRing[V]) Cap() int { return len(r.slots) }

// Push retains s, evicting the snapshot K generations older. Single
// writer only.
func (r *HistoryRing[V]) Push(s *ResultSnapshot[V]) {
	r.slots[s.Generation%uint64(len(r.slots))].Store(s)
}

// At returns the retained snapshot for the exact generation, or nil if
// it was evicted or never pushed. Lock-free.
func (r *HistoryRing[V]) At(gen uint64) *ResultSnapshot[V] {
	s := r.slots[gen%uint64(len(r.slots))].Load()
	if s == nil || s.Generation != gen {
		return nil
	}
	return s
}

// SnapshotAt returns the published snapshot for the exact generation.
// The newest generation is always addressable; older ones require
// Options.Retain > 1 and must still be within the retention window.
// The returned snapshot is immutable and safe to hold indefinitely.
// It fails with an error wrapping ErrGenerationNotRetained when gen has
// been evicted, is zero, or has not been published yet.
func (e *Engine[V, A]) SnapshotAt(gen uint64) (*ResultSnapshot[V], error) {
	return snapshotAtIn(e.snap.Load(), e.ring, e.retain(), gen)
}

// snapshotAtIn is the shared exact-generation lookup behind
// Engine.SnapshotAt and MultiView.SnapshotAt: resolve gen against the
// current snapshot and the history ring, with the detailed error cases.
func snapshotAtIn[V any](cur *ResultSnapshot[V], ring *HistoryRing[V], retain int, gen uint64) (*ResultSnapshot[V], error) {
	if cur == nil {
		return nil, fmt.Errorf("%w: nothing published yet (want generation %d)", ErrGenerationNotRetained, gen)
	}
	switch {
	case gen == cur.Generation:
		return cur, nil
	case gen > cur.Generation:
		return nil, fmt.Errorf("%w: generation %d not yet published (newest is %d)", ErrGenerationNotRetained, gen, cur.Generation)
	case gen == 0:
		return nil, fmt.Errorf("%w: generation 0 never exists (generations start at 1)", ErrGenerationNotRetained)
	}
	if ring != nil {
		if s := ring.At(gen); s != nil {
			return s, nil
		}
	}
	return nil, fmt.Errorf("%w: generation %d evicted (retaining the last %d of %d)",
		ErrGenerationNotRetained, gen, retain, cur.Generation)
}

// retain returns the effective retention depth (1 when no ring).
func (e *Engine[V, A]) retain() int {
	if e.ring == nil {
		return 1
	}
	return e.ring.Cap()
}

// RetainedGenerations returns the inclusive generation range SnapshotAt
// can currently serve. Before the first publication both bounds are 0.
func (e *Engine[V, A]) RetainedGenerations() (oldest, newest uint64) {
	cur := e.snap.Load()
	if cur == nil {
		return 0, 0
	}
	newest = cur.Generation
	oldest = 1
	if k := uint64(e.retain()); newest > k {
		oldest = newest - k + 1
	}
	return oldest, newest
}

// SnapshotDiff reports how vertex values changed between two retained
// generations: the changed-vertex set (per the program's Changed
// predicate) with each vertex's before/after values, plus the structural
// delta between the two graph snapshots.
type SnapshotDiff[V any] struct {
	// From and To are the generations compared (as passed to
	// DiffSnapshots; To need not be the newer one).
	From, To uint64

	// Changed lists the vertices whose value differs between the two
	// generations, ascending. A vertex that exists only in one snapshot
	// is compared against its initial value in the other.
	Changed []VertexID

	// Before and After hold the value each changed vertex had at From
	// and at To, parallel to Changed.
	Before, After []V

	// VertexDelta and EdgeDelta are the size changes of the graph
	// (To minus From; vertices are never removed, edges can be).
	VertexDelta int
	EdgeDelta   int64
}

// DiffSnapshots compares the values of two retained generations,
// returning the changed-vertex set and per-vertex value deltas. Both
// generations must be addressable via SnapshotAt. The comparison uses
// the program's Changed predicate, so "changed" means exactly what
// selective scheduling means; vertices present in only one generation
// are compared against their initial value.
func (e *Engine[V, A]) DiffSnapshots(from, to uint64) (*SnapshotDiff[V], error) {
	fs, err := e.SnapshotAt(from)
	if err != nil {
		return nil, err
	}
	ts, err := e.SnapshotAt(to)
	if err != nil {
		return nil, err
	}
	d := &SnapshotDiff[V]{
		From:        from,
		To:          to,
		VertexDelta: ts.Graph.NumVertices() - fs.Graph.NumVertices(),
		EdgeDelta:   ts.Graph.NumEdges() - fs.Graph.NumEdges(),
	}
	n := len(fs.Values)
	if len(ts.Values) > n {
		n = len(ts.Values)
	}
	valueAt := func(vals []V, v int) V {
		if v < len(vals) {
			return vals[v]
		}
		return e.p.InitValue(VertexID(v))
	}
	changed := bitset.New(n)
	// For's DefaultGrain chunks are whole 512-vertex blocks: one writer per word of changed.
	parallel.For(n, func(v int) {
		if e.p.Changed(valueAt(fs.Values, v), valueAt(ts.Values, v)) {
			changed.Set(VertexID(v))
		}
	})
	d.Changed = changed.Members(nil)
	d.Before = make([]V, len(d.Changed))
	d.After = make([]V, len(d.Changed))
	for i, v := range d.Changed {
		d.Before[i] = valueAt(fs.Values, int(v))
		d.After[i] = valueAt(ts.Values, int(v))
	}
	return d, nil
}
