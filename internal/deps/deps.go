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
//
// The store keeps its entry count and footprint per block of 512
// vertices, in plain fields on a cache line of their own: Append may run
// concurrently for vertices of different blocks, never for two vertices
// of one block. That is the unit the engine's parallel vertex loops hand
// a worker (forVertices in internal/core), so a loop has one writer per
// block, no shared counter and no atomic; Entries and HeapBytes sum the
// blocks, and must not run concurrently with Append.
package deps

// blockShift sets the accounting block: 1<<blockShift consecutive
// vertices share one blockCounts. It equals blockVerts in internal/core.
const blockShift = 9

// blockCounts is one block's entries and footprint, padded to a cache
// line so that workers appending to neighbouring blocks do not share one.
type blockCounts struct {
	entries, heapBytes int64
	_                  [6]int64
}

func numBlocks(n int) int { return (n + 1<<blockShift - 1) >> blockShift }

// Store holds per-vertex aggregation histories for levels 1..Horizon.
// Level 0 is implicit (vertex initial values are recomputable, §3.3).
// The zero Store is not usable; construct with New.
type Store[A any] struct {
	horizon  int
	hist     [][]A
	counts   []blockCounts // indexed by v>>blockShift
	clone    func(A) A
	bytes    func(A) int
	identity func() A
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
		counts:   make([]blockCounts, numBlocks(n)),
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
	for len(s.counts) < numBlocks(n) {
		s.counts = append(s.counts, blockCounts{})
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
// (horizontal pruning). Appends for vertices of different 512-vertex
// blocks may run concurrently; see the package comment.
func (s *Store[A]) Append(v uint32, level int, agg A) {
	if level < 1 || level > s.horizon {
		return
	}
	h := s.hist[v]
	if level <= len(h) {
		// Overwrite (refinement): account the delta in footprint.
		if s.clone == nil {
			h[level-1] = agg
			return
		}
		s.counts[v>>blockShift].heapBytes += int64(s.bytes(agg)) - int64(s.bytes(h[level-1]))
		h[level-1] = s.clone(agg)
		return
	}
	c := &s.counts[v>>blockShift]
	c.entries += int64(level - len(h))
	for len(h) < level-1 {
		var cp A
		if len(h) == 0 {
			cp = s.identity()
		} else {
			cp = s.copy(h[len(h)-1])
		}
		c.heapBytes += int64(s.bytes(cp))
		h = append(h, cp)
	}
	cp := s.copy(agg)
	c.heapBytes += int64(s.bytes(cp))
	s.hist[v] = append(h, cp)
}

// copy deep-copies a.
func (s *Store[A]) copy(a A) A {
	if s.clone == nil {
		return a
	}
	return s.clone(a)
}

// HeapBytes reports the approximate heap footprint of all stored
// aggregates (Table 9's memory-overhead metric). It sums one counter per
// block of 512 vertices.
func (s *Store[A]) HeapBytes() int64 {
	total := int64(len(s.hist)) * 24 // slice headers
	for i := range s.counts {
		total += s.counts[i].heapBytes
	}
	return total
}

// Entries reports the number of aggregation values currently stored
// across all vertex histories — the direct measure of how much the
// horizontal/vertical pruning of §3.2 is saving versus |V|·iterations.
// It sums one counter per block of 512 vertices.
func (s *Store[A]) Entries() int64 {
	var total int64
	for i := range s.counts {
		total += s.counts[i].entries
	}
	return total
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
	s.counts = make([]blockCounts, numBlocks(len(hist)))
	for v, h := range hist {
		if len(h) > s.horizon {
			h = h[:s.horizon]
		}
		if len(h) == 0 {
			continue
		}
		c := &s.counts[v>>blockShift]
		cp := make([]A, len(h))
		for i, a := range h {
			cp[i] = s.copy(a)
			c.heapBytes += int64(s.bytes(cp[i]))
		}
		c.entries += int64(len(cp))
		s.hist[v] = cp
	}
}
