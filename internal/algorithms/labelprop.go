package algorithms

import (
	"math"

	"repro/internal/core"
)

// LabelProp implements semi-supervised Label Propagation (Zhu &
// Ghahramani), the paper's LP benchmark: each vertex carries a
// distribution over F labels; unlabeled vertices adopt the normalized
// weighted average of their in-neighbors, seeds stay clamped.
//
//	д_i(v)[f] = Σ_{(u,v)∈E} c_{i-1}(u)[f] · weight(u,v)   (Table 4)
//	c_i(v)    = normalize(д_i(v))   (seeds: fixed one-hot)
//
// The aggregation is a vector of simple sums, so the single-pass delta
// applies componentwise.
type LabelProp struct {
	// Labels is F, the number of classes.
	Labels int
	// Seeds maps vertex → clamped label.
	Seeds map[core.VertexID]int
	// Tolerance gates selective scheduling on the L∞ distance.
	Tolerance float64
}

// NewLabelProp builds an LP instance with F labels and the given seeds.
func NewLabelProp(labels int, seeds map[core.VertexID]int) *LabelProp {
	return &LabelProp{Labels: labels, Seeds: seeds}
}

// InitValue returns a one-hot distribution for seeds, uniform otherwise.
func (p *LabelProp) InitValue(v core.VertexID) []float64 {
	d := make([]float64, p.Labels)
	if f, ok := p.Seeds[v]; ok {
		d[f] = 1
		return d
	}
	for i := range d {
		d[i] = 1 / float64(p.Labels)
	}
	return d
}

// IdentityAgg implements core.Program.
func (p *LabelProp) IdentityAgg() []float64 { return make([]float64, p.Labels) }

// Propagate implements ⊎.
func (p *LabelProp) Propagate(agg *[]float64, src []float64, _, _ core.VertexID, w float64, _ int) {
	a := *agg
	for f := range a {
		a[f] += src[f] * w
	}
}

// Retract implements ⋃-.
func (p *LabelProp) Retract(agg *[]float64, src []float64, _, _ core.VertexID, w float64, _ int) {
	a := *agg
	for f := range a {
		a[f] -= src[f] * w
	}
}

// SourceDelta implements the per-source half of ⋃△ componentwise,
// reusing *d's storage.
func (p *LabelProp) SourceDelta(d *[]float64, oldSrc, newSrc []float64, _, _ int) {
	if len(*d) != p.Labels {
		*d = make([]float64, p.Labels)
	}
	dv := *d
	for f := range dv {
		dv[f] = newSrc[f] - oldSrc[f]
	}
}

// AddDeltas implements the per-target half of ⋃△: each change weighted
// by its edge, componentwise.
func (p *LabelProp) AddDeltas(agg *[]float64, ds [][]float64, ws []float64) {
	a := *agg
	for k, d := range ds {
		w := ws[k]
		for f := range a {
			a[f] += d[f] * w
		}
	}
}

// massEpsilon is the threshold below which aggregate mass is treated as
// zero. Incremental retraction (⋃-) cancels contributions in floating
// point, leaving ~1e-17 dust where the true aggregate is empty;
// normalizing that dust would amplify it into an arbitrary distribution,
// so near-zero totals fall back to the prior exactly like truly empty
// aggregates do.
const massEpsilon = 1e-9

// Compute normalizes the aggregate; seeds remain clamped; vertices with
// no (meaningful) mass keep the uniform prior.
func (p *LabelProp) Compute(v core.VertexID, agg []float64) []float64 {
	out := make([]float64, p.Labels)
	if f, ok := p.Seeds[v]; ok {
		out[f] = 1
		return out
	}
	var total float64
	for _, x := range agg {
		total += x
	}
	if total <= massEpsilon {
		for i := range out {
			out[i] = 1 / float64(p.Labels)
		}
		return out
	}
	for f := range out {
		out[f] = agg[f] / total
	}
	return out
}

// Changed implements selective scheduling on L∞ distance.
func (p *LabelProp) Changed(oldV, newV []float64) bool {
	for f := range oldV {
		d := math.Abs(oldV[f] - newV[f])
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
func (p *LabelProp) CloneAgg(a []float64) []float64 { return append([]float64(nil), a...) }

// AggBytes implements core.Program.
func (p *LabelProp) AggBytes(a []float64) int { return 24 + 8*len(a) }

var (
	_ core.Program[[]float64, []float64]      = (*LabelProp)(nil)
	_ core.DeltaProgram[[]float64, []float64] = (*LabelProp)(nil)
)
