package algorithms

import (
	"math"

	"repro/internal/core"
)

// CFAgg is the statically decomposed pair of sub-aggregations for
// Alternating Least Squares collaborative filtering (§3.3):
//
//	⟨ Σ_{(u,v)∈E} c(u)·c(u)ᵀ ,  Σ_{(u,v)∈E} c(u)·weight(u,v) ⟩
//
// M is the k×k Gram matrix flattened row-major; B is the k-vector.
type CFAgg struct {
	M []float64
	B []float64
}

// CollabFilter implements ALS-style collaborative filtering (Zhou et
// al.), the paper's CF benchmark. Vertex values are k-dimensional latent
// factors; ∮ solves the regularized normal equations
//
//	c_i(v) = (Σ c(u)c(u)ᵀ + λ·I_k)⁻¹ · Σ c(u)·weight(u,v).
//
// The first sub-aggregation transforms source values before summation,
// so its incremental update evaluates the discrete contributions
// c(u)c(u)ᵀ on the fly and sums their difference — the paper's worked
// example of a complex aggregation made incremental.
type CollabFilter struct {
	// Rank is k, the latent dimension.
	Rank int
	// Lambda is the ridge regularizer λ (must be > 0 so the solve is
	// well-posed).
	Lambda float64
	// Tolerance gates selective scheduling on L∞ distance.
	Tolerance float64
}

// NewCollabFilter returns CF with rank k and λ = 0.1.
func NewCollabFilter(k int) *CollabFilter { return &CollabFilter{Rank: k, Lambda: 0.1} }

// InitValue seeds each latent factor deterministically in [0.1, 1.1).
func (p *CollabFilter) InitValue(v core.VertexID) []float64 {
	x := make([]float64, p.Rank)
	for i := range x {
		x[i] = 0.1 + hashUnit(uint64(v)*2654435761+uint64(i)*40503)
	}
	return x
}

// IdentityAgg implements core.Program.
func (p *CollabFilter) IdentityAgg() CFAgg {
	return CFAgg{M: make([]float64, p.Rank*p.Rank), B: make([]float64, p.Rank)}
}

// Propagate implements ⊎: M += u·uᵀ, B += u·w.
func (p *CollabFilter) Propagate(agg *CFAgg, src []float64, _, _ core.VertexID, w float64, _ int) {
	k := p.Rank
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			agg.M[i*k+j] += src[i] * src[j]
		}
		agg.B[i] += src[i] * w
	}
}

// Retract implements ⋃-: the old discrete contribution u·uᵀ is
// recomputed from the old source value and subtracted.
func (p *CollabFilter) Retract(agg *CFAgg, src []float64, _, _ core.VertexID, w float64, _ int) {
	k := p.Rank
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			agg.M[i*k+j] -= src[i] * src[j]
		}
		agg.B[i] -= src[i] * w
	}
}

// SourceDelta implements the per-source half of ⋃△ exactly as derived in
// §3.3: ⟨new·newᵀ − old·oldᵀ, new − old⟩, reusing *d's storage. The
// discrete contributions are evaluated once per source, not per edge.
func (p *CollabFilter) SourceDelta(d *CFAgg, oldSrc, newSrc []float64, _, _ int) {
	k := p.Rank
	if len(d.M) != k*k || len(d.B) != k {
		*d = p.IdentityAgg()
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			d.M[i*k+j] = newSrc[i]*newSrc[j] - oldSrc[i]*oldSrc[j]
		}
		d.B[i] = newSrc[i] - oldSrc[i]
	}
}

// AddDeltas implements the per-target half of ⋃△:
// ⟨Σ dM, Σ dB·w⟩.
func (p *CollabFilter) AddDeltas(agg *CFAgg, ds []CFAgg, ws []float64) {
	for k, d := range ds {
		w := ws[k]
		for i, m := range d.M {
			agg.M[i] += m
		}
		for i, b := range d.B {
			agg.B[i] += b * w
		}
	}
}

// Compute solves (M + λI)x = B by Gaussian elimination with partial
// pivoting. Vertices with no ratings keep their initial factors.
func (p *CollabFilter) Compute(v core.VertexID, agg CFAgg) []float64 {
	k := p.Rank
	// Incremental retraction leaves ~1e-15 dust where the true aggregate
	// is empty; solving against dust would amplify it (cf. labelprop.go's
	// massEpsilon), so a near-zero system means "no ratings" exactly like
	// a zero one.
	allZero := true
	for _, b := range agg.B {
		if b > massEpsilon || b < -massEpsilon {
			allZero = false
			break
		}
	}
	if allZero {
		return p.InitValue(v)
	}
	// Build the augmented system [M+λI | B].
	a := make([]float64, k*(k+1))
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			a[i*(k+1)+j] = agg.M[i*k+j]
		}
		a[i*(k+1)+i] += p.Lambda
		a[i*(k+1)+k] = agg.B[i]
	}
	x, ok := solveDense(a, k)
	if !ok {
		return p.InitValue(v)
	}
	return x
}

// solveDense solves the k×k augmented system in place; returns ok=false
// on a (numerically) singular matrix.
func solveDense(a []float64, k int) ([]float64, bool) {
	w := k + 1
	for col := 0; col < k; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(a[col*w+col])
		for r := col + 1; r < k; r++ {
			if abs := math.Abs(a[r*w+col]); abs > best {
				best, pivot = abs, r
			}
		}
		if best < 1e-12 {
			return nil, false
		}
		if pivot != col {
			for c := col; c <= k; c++ {
				a[col*w+c], a[pivot*w+c] = a[pivot*w+c], a[col*w+c]
			}
		}
		inv := 1 / a[col*w+col]
		for r := col + 1; r < k; r++ {
			f := a[r*w+col] * inv
			if f == 0 {
				continue
			}
			for c := col; c <= k; c++ {
				a[r*w+c] -= f * a[col*w+c]
			}
		}
	}
	x := make([]float64, k)
	for r := k - 1; r >= 0; r-- {
		sum := a[r*w+k]
		for c := r + 1; c < k; c++ {
			sum -= a[r*w+c] * x[c]
		}
		x[r] = sum / a[r*w+r]
	}
	return x, true
}

// Changed implements selective scheduling on L∞ distance.
func (p *CollabFilter) Changed(oldV, newV []float64) bool {
	for i := range oldV {
		d := math.Abs(oldV[i] - newV[i])
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
func (p *CollabFilter) CloneAgg(a CFAgg) CFAgg {
	return CFAgg{M: append([]float64(nil), a.M...), B: append([]float64(nil), a.B...)}
}

// AggBytes implements core.Program.
func (p *CollabFilter) AggBytes(a CFAgg) int { return 48 + 8*(len(a.M)+len(a.B)) }

var (
	_ core.Program[[]float64, CFAgg]      = (*CollabFilter)(nil)
	_ core.DeltaProgram[[]float64, CFAgg] = (*CollabFilter)(nil)
)
