package dd

// WeightedEdge is the value side of the SSSP edge arrangement.
type WeightedEdge struct {
	Dst    uint32
	Weight float64
}

type distRec = KV[uint32, float64]

// SSSP is the differential-dataflow single-source shortest paths of
// Fig. 9: an iterate loop whose body joins current distances with the
// edge arrangement and min-reduces candidates (including the incoming
// distances themselves) per destination. The min-reduce keeps each
// destination's full candidate multiset — DD's "ordered map of path
// values and counts" (§5.4B) — which is what makes its deletions cheap
// relative to GraphBolt's pull re-evaluation.
type SSSP struct {
	source  uint32
	maxIter int

	edges Multiset[KV[uint32, WeightedEdge]]

	cand []*Join[uint32, float64, WeightedEdge, distRec]
	mins []*Reduce[uint32, float64, float64]
	// dists[i] is the collection entering loop iteration i; dists[0] is
	// the root {(source, 0)}. Invariant: len(dists) == len(cand)+1.
	dists []Multiset[distRec]
}

// NewSSSP creates the dataflow; maxIter caps loop depth.
func NewSSSP(source uint32, maxIter int) *SSSP {
	root := Multiset[distRec]{}
	root.Apply(Diff[distRec]{distRec{source, 0}, +1})
	return &SSSP{
		source:  source,
		maxIter: maxIter,
		edges:   Multiset[KV[uint32, WeightedEdge]]{},
		dists:   []Multiset[distRec]{root},
	}
}

// minReduce keeps the smallest candidate distance.
func minReduce(_ uint32, g Multiset[float64]) (float64, bool) {
	best := 0.0
	first := true
	for v := range g {
		if first || v < best {
			best = v
			first = false
		}
	}
	return best, !first
}

func fullDiffs[T comparable](m Multiset[T]) []Diff[T] {
	out := make([]Diff[T], 0, len(m))
	for rec, c := range m {
		out = append(out, Diff[T]{rec, c})
	}
	return out
}

func equalMultisets[T comparable](a, b Multiset[T]) bool {
	if len(a) != len(b) {
		return false
	}
	for rec, c := range a {
		if b[rec] != c {
			return false
		}
	}
	return true
}

// outCollection materializes a reduce's current output as a multiset.
func outCollection(r *Reduce[uint32, float64, float64]) Multiset[distRec] {
	m := Multiset[distRec]{}
	for k, v := range r.out {
		m.Apply(Diff[distRec]{distRec{k, v}, +1})
	}
	return m
}

// Update advances one epoch, also used to load the initial edges.
func (s *SSSP) Update(addEdges, delEdges []KV[uint32, WeightedEdge]) {
	var dEdges []Diff[KV[uint32, WeightedEdge]]
	for _, e := range addEdges {
		dEdges = append(dEdges, Diff[KV[uint32, WeightedEdge]]{e, +1})
		s.edges.Apply(Diff[KV[uint32, WeightedEdge]]{e, +1})
	}
	for _, e := range delEdges {
		if s.edges[e] == 0 {
			continue
		}
		dEdges = append(dEdges, Diff[KV[uint32, WeightedEdge]]{e, -1})
		s.edges.Apply(Diff[KV[uint32, WeightedEdge]]{e, -1})
	}

	var dDists []Diff[distRec] // diffs entering level i (none for the root)
	for i := 0; i < s.maxIter; i++ {
		if i < len(s.cand) {
			// Existing level: fold the incoming diffs through. Every
			// existing level must see the edge diffs even when distance
			// diffs have died out, to keep its arrangement current. The
			// level's output diffs become the next level's input and are
			// folded into its collection there — exactly once.
			quietIn := len(dDists) == 0
			s.dists[i].ApplyAll(dDists)
			dC := s.cand[i].Update(dDists, dEdges)
			dDists = s.mins[i].Update(append(dC, dDists...))
			if quietIn && len(dDists) == 0 && i+1 == len(s.cand) {
				// The tail's input and output both stand, so they are
				// still equal: a fixed point of the updated edges. An
				// unchanged output alone is not enough — the input may
				// have moved away from it — so that case falls through to
				// the comparison below.
				return
			}
			continue
		}

		// A deeper level is needed only while the collection keeps
		// changing from one iteration to the next (level 0 always runs).
		s.dists[i].ApplyAll(dDists)
		if i > 0 && equalMultisets(s.dists[i], s.dists[i-1]) {
			return
		}
		j := NewJoin[uint32, float64, WeightedEdge, distRec](
			func(_ uint32, d float64, e WeightedEdge) distRec {
				return distRec{e.Dst, d + e.Weight}
			})
		r := NewReduce[uint32, float64, float64](minReduce)
		dIn := fullDiffs(s.dists[i])
		dC := j.Update(dIn, fullDiffs(s.edges))
		r.Update(append(dC, dIn...))
		s.cand = append(s.cand, j)
		s.mins = append(s.mins, r)
		s.dists = append(s.dists, outCollection(r))
		dDists = nil
	}
}

// Distances materializes the deepest iteration's output.
func (s *SSSP) Distances() map[uint32]float64 {
	out := map[uint32]float64{}
	for rec := range s.dists[len(s.dists)-1] {
		out[rec.Key] = rec.Val
	}
	return out
}

// Depth returns the current unrolled loop depth.
func (s *SSSP) Depth() int { return len(s.cand) }

// Stats reports cumulative operator work.
func (s *SSSP) Stats() int64 {
	var total int64
	for i := range s.cand {
		total += s.cand[i].Work + s.mins[i].Work
	}
	return total
}
