package algorithms

import (
	"math"

	"repro/internal/core"
)

// CoEMAgg is CoEM's decomposed aggregate: the weighted sum of neighbor
// scores and the total in-weight that normalizes it. Keeping the
// normalizer inside the aggregate (instead of re-reading the graph in ∮)
// is exactly the paper's static decomposition into simple
// sub-aggregations — both components update incrementally.
type CoEMAgg struct {
	Sum float64 // Σ c(u)·weight(u,v)
	W   float64 // Σ weight(u,v)
}

// CoEM implements Co-Training Expectation Maximization for named-entity
// recognition (Nigam & Ghani), the paper's semi-supervised learning
// benchmark:
//
//	д_i(v) = Σ_{(u,v)∈E} c_{i-1}(u)·weight(u,v) / Σ_{(w,v)∈E} weight(w,v)
//
// Scores live in [0,1]; positive/negative seed vertices are clamped.
type CoEM struct {
	// PositiveSeeds are clamped to score 1, NegativeSeeds to 0.
	PositiveSeeds map[core.VertexID]struct{}
	NegativeSeeds map[core.VertexID]struct{}
	// Tolerance gates selective scheduling.
	Tolerance float64
}

// NewCoEM builds a CoEM instance with positive and negative seed sets.
func NewCoEM(pos, neg []core.VertexID) *CoEM {
	c := &CoEM{
		PositiveSeeds: make(map[core.VertexID]struct{}, len(pos)),
		NegativeSeeds: make(map[core.VertexID]struct{}, len(neg)),
	}
	for _, v := range pos {
		c.PositiveSeeds[v] = struct{}{}
	}
	for _, v := range neg {
		c.NegativeSeeds[v] = struct{}{}
	}
	return c
}

// InitValue clamps seeds; everything else starts neutral at 0.5.
func (p *CoEM) InitValue(v core.VertexID) float64 {
	if _, ok := p.PositiveSeeds[v]; ok {
		return 1
	}
	if _, ok := p.NegativeSeeds[v]; ok {
		return 0
	}
	return 0.5
}

// IdentityAgg implements core.Program.
func (p *CoEM) IdentityAgg() CoEMAgg { return CoEMAgg{} }

// Propagate implements ⊎ on both sub-aggregations.
func (p *CoEM) Propagate(agg *CoEMAgg, src float64, _, _ core.VertexID, w float64, _ int) {
	agg.Sum += src * w
	agg.W += w
}

// Retract implements ⋃- on both sub-aggregations.
func (p *CoEM) Retract(agg *CoEMAgg, src float64, _, _ core.VertexID, w float64, _ int) {
	agg.Sum -= src * w
	agg.W -= w
}

// SourceDelta implements the per-source half of ⋃△: only the score sum
// changes for a value update; the normalizer changes only structurally
// (⊎/⋃-), so the delta's W stays 0.
func (p *CoEM) SourceDelta(d *CoEMAgg, oldSrc, newSrc float64, _, _ int) {
	*d = CoEMAgg{Sum: newSrc - oldSrc}
}

// AddDeltas implements the per-target half of ⋃△: each score change
// weighted by its edge.
func (p *CoEM) AddDeltas(agg *CoEMAgg, ds []CoEMAgg, ws []float64) {
	s := agg.Sum
	for k := range ds {
		s += ds[k].Sum * ws[k]
	}
	agg.Sum = s
}

// Compute normalizes; seeds stay clamped; isolated vertices stay neutral.
func (p *CoEM) Compute(v core.VertexID, agg CoEMAgg) float64 {
	if _, ok := p.PositiveSeeds[v]; ok {
		return 1
	}
	if _, ok := p.NegativeSeeds[v]; ok {
		return 0
	}
	// Retraction leaves float dust where the true weight sum is zero;
	// normalizing by it would amplify the dust (see labelprop.go's
	// massEpsilon), so near-zero normalizers behave like empty ones.
	if agg.W <= massEpsilon {
		return 0.5
	}
	return agg.Sum / agg.W
}

// Changed implements selective scheduling.
func (p *CoEM) Changed(oldV, newV float64) bool {
	if p.Tolerance <= 0 {
		return oldV != newV
	}
	return math.Abs(oldV-newV) > p.Tolerance
}

// CloneAgg implements core.Program.
func (p *CoEM) CloneAgg(a CoEMAgg) CoEMAgg { return a }

// AggBytes implements core.Program.
func (p *CoEM) AggBytes(CoEMAgg) int { return 16 }

var (
	_ core.Program[float64, CoEMAgg]      = (*CoEM)(nil)
	_ core.DeltaProgram[float64, CoEMAgg] = (*CoEM)(nil)
)
