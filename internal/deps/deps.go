// Package deps implements the aggregation-value dependency store A_G of
// §3.2: per-vertex histories of aggregation values д_i(v), one entry per
// iteration in which the aggregate changed, with the paper's no-holes
// invariant (if д_i(v) is stored, д_k(v) is stored for every k < i).
//
// Horizontal pruning caps the tracked iteration range at a horizon;
// vertical pruning stops per-vertex tracking once the aggregate
// stabilizes (callers simply stop appending). Lookups past a vertex's
// last entry return the last entry — exactly the stabilized value — and
// lookups on an empty history report "identity", meaning the vertex
// never received a contribution.
package deps

import "sync/atomic"

// Store holds per-vertex aggregation histories for levels 1..Horizon.
// Level 0 is implicit (vertex initial values are recomputable, §3.3).
// The zero Store is not usable; construct with New.
type Store[A any] struct {
	horizon  int
	hist     [][]A
	clone    func(A) A
	bytes    func(A) int
	identity func() A

	heapBytes atomic.Int64
	entries   atomic.Int64
}

// New creates a store for n vertices with the given horizon (the
// horizontal-pruning cut-off: levels > horizon are never stored).
// clone deep-copies an aggregate, and may be nil when A holds no
// pointers: assignment then copies it, and overwriting an entry cannot
// change the footprint; bytes reports an aggregate's heap footprint for
// the Table 9 accounting; identity produces the aggregate a vertex holds
// before receiving any contribution (used to fill no-holes gaps).
func New[A any](n, horizon int, clone func(A) A, bytes func(A) int, identity func() A) *Store[A] {
	if horizon < 0 {
		horizon = 0
	}
	return &Store[A]{
		horizon:  horizon,
		hist:     make([][]A, n),
		clone:    clone,
		bytes:    bytes,
		identity: identity,
	}
}

// Horizon returns the horizontal-pruning cut-off.
func (s *Store[A]) Horizon() int { return s.horizon }

// Grow extends the store to n vertices (new histories empty). No-op if
// already large enough.
func (s *Store[A]) Grow(n int) {
	for len(s.hist) < n {
		s.hist = append(s.hist, nil)
	}
}

// Last returns the highest level stored for v (0 if none).
func (s *Store[A]) Last(v uint32) int { return len(s.hist[v]) }

// Lookup returns д_level(v). ok is false when the vertex has no history
// at all, meaning its aggregate is still the identity. Lookups beyond the
// last entry return the last (stabilized) value; level must be ≥ 1.
func (s *Store[A]) Lookup(v uint32, level int) (agg A, ok bool) {
	h := s.hist[v]
	if len(h) == 0 {
		var zero A
		return zero, false
	}
	if level > len(h) {
		level = len(h)
	}
	return h[level-1], true
}

// Append records д_level(v) at the end of iteration `level` of the
// initial (or refined) run. The aggregate is cloned. If level exceeds
// last+1, the gap is filled with copies of the previous entry to keep
// the no-holes invariant; if level is already stored it is overwritten
// (the refinement path). Levels beyond the horizon are ignored
// (horizontal pruning).
func (s *Store[A]) Append(v uint32, level int, agg A) {
	if level < 1 || level > s.horizon {
		return
	}
	h := s.hist[v]
	if level <= len(h) {
		// Overwrite (refinement): account the delta in footprint. Skip
		// the shared counter when the size is unchanged, the common case:
		// under parallel refinement its cache line is contended.
		if s.clone == nil {
			h[level-1] = agg
			return
		}
		if d := int64(s.bytes(agg)) - int64(s.bytes(h[level-1])); d != 0 {
			s.heapBytes.Add(d)
		}
		h[level-1] = s.clone(agg)
		return
	}
	for len(h) < level-1 {
		var cp A
		if len(h) == 0 {
			cp = s.identity()
		} else {
			cp = s.copy(h[len(h)-1])
		}
		s.heapBytes.Add(int64(s.bytes(cp)))
		s.entries.Add(1)
		h = append(h, cp)
	}
	cp := s.copy(agg)
	s.heapBytes.Add(int64(s.bytes(cp)))
	s.entries.Add(1)
	h = append(h, cp)
	s.hist[v] = h
}

// copy deep-copies a.
func (s *Store[A]) copy(a A) A {
	if s.clone == nil {
		return a
	}
	return s.clone(a)
}

// HeapBytes reports the approximate heap footprint of all stored
// aggregates (Table 9's memory-overhead metric).
func (s *Store[A]) HeapBytes() int64 {
	return s.heapBytes.Load() + int64(len(s.hist))*24 // slice headers
}

// Entries reports the number of aggregation values currently stored
// across all vertex histories — the direct measure of how much the
// horizontal/vertical pruning of §3.2 is saving versus |V|·iterations.
func (s *Store[A]) Entries() int64 {
	return s.entries.Load()
}

// Export copies every vertex history out of the store, for engine
// checkpointing. Aggregates are cloned.
func (s *Store[A]) Export() [][]A {
	out := make([][]A, len(s.hist))
	for v, h := range s.hist {
		if len(h) == 0 {
			continue
		}
		cp := make([]A, len(h))
		for i, a := range h {
			cp[i] = s.copy(a)
		}
		out[v] = cp
	}
	return out
}

// Import replaces the store contents with previously exported histories,
// recomputing the footprint accounting. Histories longer than the
// horizon are truncated.
func (s *Store[A]) Import(hist [][]A) {
	s.hist = make([][]A, len(hist))
	var total, entries int64
	for v, h := range hist {
		if len(h) > s.horizon {
			h = h[:s.horizon]
		}
		if len(h) == 0 {
			continue
		}
		cp := make([]A, len(h))
		for i, a := range h {
			cp[i] = s.copy(a)
			total += int64(s.bytes(cp[i]))
		}
		entries += int64(len(cp))
		s.hist[v] = cp
	}
	s.heapBytes.Store(total)
	s.entries.Store(entries)
}
