package algorithms

import (
	"math"

	"repro/internal/core"
)

// Katz computes Katz centrality under BSP semantics:
//
//	д_i(v) = Σ_{(u,v)∈E} c_{i-1}(u)
//	c_i(v) = β + α · д_i(v)
//
// a plain-sum decomposable aggregation (no degree normalization), so the
// single-pass incremental delta applies directly. α must satisfy
// α < 1/λ_max for convergence; the conservative defaults below converge
// on any graph with max in-degree ≤ 1/α.
type Katz struct {
	// Alpha is the attenuation factor α. Default 0.01.
	Alpha float64
	// Beta is the base centrality β. Default 1.
	Beta float64
	// Tolerance gates selective scheduling.
	Tolerance float64
}

// NewKatz returns Katz centrality with conservative defaults.
func NewKatz() *Katz { return &Katz{Alpha: 0.01, Beta: 1} }

// InitValue implements core.Program.
func (p *Katz) InitValue(core.VertexID) float64 { return 1 }

// IdentityAgg implements core.Program.
func (p *Katz) IdentityAgg() float64 { return 0 }

// Propagate implements ⊎.
func (p *Katz) Propagate(agg *float64, src float64, _, _ core.VertexID, _ float64, _ int) {
	*agg += src
}

// Retract implements ⋃-.
func (p *Katz) Retract(agg *float64, src float64, _, _ core.VertexID, _ float64, _ int) {
	*agg -= src
}

// SourceDelta implements the per-source half of ⋃△.
func (p *Katz) SourceDelta(d *float64, oldSrc, newSrc float64, _, _ int) {
	*d = newSrc - oldSrc
}

// AddDeltas implements the per-target half of ⋃△.
func (p *Katz) AddDeltas(agg *float64, ds []float64, _ []float64) {
	a := *agg
	for _, d := range ds {
		a += d
	}
	*agg = a
}

// Compute implements ∮.
func (p *Katz) Compute(_ core.VertexID, agg float64) float64 {
	return p.Beta + p.Alpha*agg
}

// Changed implements selective scheduling.
func (p *Katz) Changed(oldV, newV float64) bool {
	if p.Tolerance <= 0 {
		return oldV != newV
	}
	return math.Abs(oldV-newV) > p.Tolerance
}

// CloneAgg implements core.Program.
func (p *Katz) CloneAgg(a float64) float64 { return a }

// AggBytes implements core.Program.
func (p *Katz) AggBytes(float64) int { return 8 }

var (
	_ core.Program[float64, float64]      = (*Katz)(nil)
	_ core.DeltaProgram[float64, float64] = (*Katz)(nil)
)
