// Package algorithms implements the six synchronous graph algorithms of
// the paper's evaluation (Table 4) — PageRank, Belief Propagation, Label
// Propagation, CoEM, Collaborative Filtering, Triangle Counting — plus
// SSSP and BFS (the non-decomposable min-aggregation comparison of §5.4)
// and Connected Components, all expressed against the core engine's
// incremental programming model.
package algorithms

import (
	"math"

	"repro/internal/core"
)

// PageRank computes relative page importance with the classic damped
// sum aggregation (Table 4):
//
//	д_i(v) = Σ_{(u,v)∈E} c_{i-1}(u) / out_degree(u)
//	c_i(v) = (1-d) + d · д_i(v)
//
// It is a simple decomposable aggregation: the change in contribution is
// captured directly by propagateDelta (Algorithm 3 of the paper).
type PageRank struct {
	// Damping is d above; the paper uses 0.85.
	Damping float64
	// Tolerance gates selective scheduling: value changes with absolute
	// difference ≤ Tolerance are not propagated. 0 gives exact BSP.
	Tolerance float64
}

// NewPageRank returns PageRank with the paper's constants.
func NewPageRank() *PageRank { return &PageRank{Damping: 0.85} }

// InitValue implements core.Program: every rank starts at 1 (Algorithm 1).
func (p *PageRank) InitValue(core.VertexID) float64 { return 1 }

// IdentityAgg implements core.Program.
func (p *PageRank) IdentityAgg() float64 { return 0 }

func contributionPR(src float64, deg int) float64 {
	if deg <= 0 {
		// A source with no out-edges in the relevant snapshot contributes
		// nothing; the degree-change delta re-adds the proper share.
		return 0
	}
	return src / float64(deg)
}

// Propagate implements ⊎.
func (p *PageRank) Propagate(agg *float64, src float64, _, _ core.VertexID, _ float64, srcOutDeg int) {
	*agg += contributionPR(src, srcOutDeg)
}

// Retract implements ⋃-.
func (p *PageRank) Retract(agg *float64, src float64, _, _ core.VertexID, _ float64, srcOutDeg int) {
	*agg -= contributionPR(src, srcOutDeg)
}

// SourceDelta implements the per-source half of ⋃△ (propagateDelta of
// Algorithm 3): new/new_degree − old/old_degree.
func (p *PageRank) SourceDelta(d *float64, oldSrc, newSrc float64, oldDeg, newDeg int) {
	*d = contributionPR(newSrc, newDeg) - contributionPR(oldSrc, oldDeg)
}

// AddDeltas implements the per-target half of ⋃△: the contributions are
// unweighted.
func (p *PageRank) AddDeltas(agg *float64, ds []float64, _ []float64) {
	a := *agg
	for _, d := range ds {
		a += d
	}
	*agg = a
}

// Compute implements ∮.
func (p *PageRank) Compute(_ core.VertexID, agg float64) float64 {
	return (1 - p.Damping) + p.Damping*agg
}

// Changed implements selective scheduling.
func (p *PageRank) Changed(oldV, newV float64) bool {
	if p.Tolerance <= 0 {
		return oldV != newV
	}
	return math.Abs(oldV-newV) > p.Tolerance
}

// CloneAgg implements core.Program.
func (p *PageRank) CloneAgg(a float64) float64 { return a }

// AggBytes implements core.Program.
func (p *PageRank) AggBytes(float64) int { return 8 }

// UsesOutDegree reports that contributions are degree-normalized.
func (p *PageRank) UsesOutDegree() bool { return true }

var (
	_ core.Program[float64, float64]      = (*PageRank)(nil)
	_ core.DeltaProgram[float64, float64] = (*PageRank)(nil)
	_ core.DegreeSensitive                = (*PageRank)(nil)
)

// PersonalizedPageRank biases the teleport mass toward a source set:
// restart probability flows only to the given vertices, ranking the
// graph relative to them. Same simple-sum aggregation as PageRank, so
// the same single-pass incremental delta applies.
type PersonalizedPageRank struct {
	PageRank
	// Sources receive the teleport mass, equally divided.
	Sources map[core.VertexID]struct{}
}

// NewPersonalizedPageRank returns a PPR instance over the source set.
func NewPersonalizedPageRank(sources []core.VertexID) *PersonalizedPageRank {
	p := &PersonalizedPageRank{PageRank: PageRank{Damping: 0.85}}
	p.Sources = make(map[core.VertexID]struct{}, len(sources))
	for _, s := range sources {
		p.Sources[s] = struct{}{}
	}
	return p
}

// InitValue starts source vertices at 1, the rest at 0.
func (p *PersonalizedPageRank) InitValue(v core.VertexID) float64 {
	if _, ok := p.Sources[v]; ok {
		return 1
	}
	return 0
}

// Compute gives teleport mass only to sources.
func (p *PersonalizedPageRank) Compute(v core.VertexID, agg float64) float64 {
	teleport := 0.0
	if _, ok := p.Sources[v]; ok {
		teleport = 1 - p.Damping
	}
	return teleport + p.Damping*agg
}

var (
	_ core.Program[float64, float64]      = (*PersonalizedPageRank)(nil)
	_ core.DeltaProgram[float64, float64] = (*PersonalizedPageRank)(nil)
	_ core.DegreeSensitive                = (*PersonalizedPageRank)(nil)
)
