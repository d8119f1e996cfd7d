package algorithms

import (
	"math"

	"repro/internal/core"
)

// BeliefProp implements (loopy) Belief Propagation inference over a
// pairwise Markov random field laid on the graph, the paper's BP
// benchmark (Table 4, Algorithm 2):
//
//	д_i(v)[s] = Π_{(u,v)∈E} ( Σ_{s'} φ(u,s')·ψ(u,v,s',s)·c_{i-1}(u)[s'] )
//	c_i(v)    = normalize(д_i(v))
//
// The aggregation is complex (a product of per-edge message vectors that
// transform the source value), so it is incrementalized by on-the-fly
// evaluation of discrete contributions: Retract divides out the old
// contribution recomputed from the old source value, Propagate multiplies
// in the new one — the repropagate/retract/propagate trio of Algorithm 2.
// No single-pass delta exists, so the engine issues the pair.
type BeliefProp struct {
	// States is |S|, the number of latent states.
	States int
	// Phi is the node potential φ(v, s); must be strictly positive.
	Phi func(v core.VertexID, s int) float64
	// Psi is the edge potential ψ(u, v, s', s); must be strictly positive.
	Psi func(u, v core.VertexID, s1, s2 int) float64
	// Tolerance gates selective scheduling on L∞ distance.
	Tolerance float64
}

// NewBeliefProp builds a BP instance with deterministic pseudo-random
// potentials in [0.5, 1.5), seeded per vertex/state — the synthetic MRF
// standing in for the paper's inference workloads.
func NewBeliefProp(states int) *BeliefProp {
	return &BeliefProp{
		States: states,
		Phi: func(v core.VertexID, s int) float64 {
			return 0.5 + hashUnit(uint64(v)*31+uint64(s))
		},
		Psi: func(u, v core.VertexID, s1, s2 int) float64 {
			return 0.5 + hashUnit(uint64(u)*1315423911+uint64(v)*2654435761+uint64(s1)*97+uint64(s2))
		},
	}
}

// hashUnit maps a key to [0, 1) deterministically.
func hashUnit(x uint64) float64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return float64(x>>11) / (1 << 53)
}

// InitValue starts from the uniform belief.
func (p *BeliefProp) InitValue(core.VertexID) []float64 {
	d := make([]float64, p.States)
	for i := range d {
		d[i] = 1 / float64(p.States)
	}
	return d
}

// IdentityAgg is the all-ones product identity.
func (p *BeliefProp) IdentityAgg() []float64 {
	d := make([]float64, p.States)
	for i := range d {
		d[i] = 1
	}
	return d
}

// maxStackStates is the largest States whose per-edge message vector
// lives in a caller's fixed array; larger models allocate one per call.
const maxStackStates = 8

// contribution computes the per-edge message vector from the source's
// normalized product (getContribution of Algorithm 2), into buf when
// States fits it.
func (p *BeliefProp) contribution(buf *[maxStackStates]float64, src []float64, u, v core.VertexID) []float64 {
	var contrib []float64
	if p.States <= len(buf) {
		contrib = buf[:p.States]
	} else {
		contrib = make([]float64, p.States)
	}
	for s := range contrib {
		var sum float64
		for s1 := 0; s1 < p.States; s1++ {
			sum += p.Phi(u, s1) * p.Psi(u, v, s1, s) * src[s1]
		}
		contrib[s] = sum
	}
	return contrib
}

// Propagate multiplies the contribution in (repropagate/propagate).
func (p *BeliefProp) Propagate(agg *[]float64, src []float64, u, v core.VertexID, _ float64, _ int) {
	var buf [maxStackStates]float64
	contrib := p.contribution(&buf, src, u, v)
	a := *agg
	for s := range a {
		a[s] *= contrib[s]
	}
}

// Retract divides the old contribution out (retract of Algorithm 2).
func (p *BeliefProp) Retract(agg *[]float64, src []float64, u, v core.VertexID, _ float64, _ int) {
	var buf [maxStackStates]float64
	contrib := p.contribution(&buf, src, u, v)
	a := *agg
	for s := range a {
		a[s] /= contrib[s]
	}
}

// Compute normalizes the product into a belief.
func (p *BeliefProp) Compute(_ core.VertexID, agg []float64) []float64 {
	out := make([]float64, p.States)
	var total float64
	for _, x := range agg {
		total += x
	}
	if total <= 0 || math.IsInf(total, 0) || math.IsNaN(total) {
		for i := range out {
			out[i] = 1 / float64(p.States)
		}
		return out
	}
	for s := range out {
		out[s] = agg[s] / total
	}
	return out
}

// Changed implements selective scheduling on L∞ distance.
func (p *BeliefProp) Changed(oldV, newV []float64) bool {
	for s := range oldV {
		d := math.Abs(oldV[s] - newV[s])
		if p.Tolerance <= 0 {
			if d != 0 {
				return true
			}
		} else if d > p.Tolerance {
			return true
		}
	}
	return false
}

// CloneAgg implements core.Program.
func (p *BeliefProp) CloneAgg(a []float64) []float64 { return append([]float64(nil), a...) }

// AggBytes implements core.Program.
func (p *BeliefProp) AggBytes(a []float64) int { return 24 + 8*len(a) }

var _ core.Program[[]float64, []float64] = (*BeliefProp)(nil)
