package algorithms

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/core/difftest"
	"repro/internal/gen"
)

// deltaProgram is a program with the single-pass ⋃△.
type deltaProgram[V, A any] interface {
	core.Program[V, A]
	core.DeltaProgram[V, A]
}

// propagateDelta is ⋃△ over one edge of weight w: the source's delta,
// folded in as the sparse push folds it.
func propagateDelta[V, A any](p core.DeltaProgram[V, A], agg *A, oldV, newV V, w float64, oldDeg, newDeg int) {
	var d A
	p.SourceDelta(&d, oldV, newV, oldDeg, newDeg)
	p.AddDeltas(agg, []A{d}, []float64{w})
}

// factorCase is one program's ⋃△ split, checked against the per-edge
// expression it factors.
type factorCase[V, A any] struct {
	p     deltaProgram[V, A]
	value func(r *gen.RNG) V
	agg   func(r *gen.RNG) A
	// perEdge is the program's ⋃△ as one expression per edge.
	perEdge func(agg *A, oldV, newV V, w float64, oldDeg, newDeg int)
	// floats lists every component of an aggregate.
	floats func(a A) []float64
}

// checkFactorisation folds 1–6 random source changes into a random
// aggregate three ways: SourceDelta per source and one AddDeltas (the
// dense pull), one AddDeltas per edge (the sparse push), and perEdge per
// edge. All three must agree bit for bit, and with Retract of the old
// value followed by Propagate of the new within rounding. Each trial
// reuses the deltas of the last one, as the engine's scratch does.
func checkFactorisation[V, A any](t *testing.T, c factorCase[V, A]) {
	t.Helper()
	r := gen.NewRNG(38)
	ds := make([]A, 6)
	for trial := 0; trial < 500; trial++ {
		m := 1 + r.Intn(len(ds))
		olds, news := make([]V, m), make([]V, m)
		ws, oldDegs, newDegs := make([]float64, m), make([]int, m), make([]int, m)
		for k := 0; k < m; k++ {
			olds[k], news[k] = c.value(r), c.value(r)
			ws[k] = 0.05 + 2*r.Float64()
			oldDegs[k], newDegs[k] = r.Intn(6), r.Intn(6)
		}
		start := c.agg(r)

		fold, each, want, rp := c.p.CloneAgg(start), c.p.CloneAgg(start), c.p.CloneAgg(start), c.p.CloneAgg(start)
		for k := 0; k < m; k++ {
			c.p.SourceDelta(&ds[k], olds[k], news[k], oldDegs[k], newDegs[k])
		}
		c.p.AddDeltas(&fold, ds[:m], ws)
		for k := 0; k < m; k++ {
			c.p.AddDeltas(&each, ds[k:k+1], ws[k:k+1])
			c.perEdge(&want, olds[k], news[k], ws[k], oldDegs[k], newDegs[k])
			c.p.Retract(&rp, olds[k], 0, 1, ws[k], oldDegs[k])
			c.p.Propagate(&rp, news[k], 0, 1, ws[k], newDegs[k])
		}

		fs, es, wantFs, rps := c.floats(fold), c.floats(each), c.floats(want), c.floats(rp)
		for i := range wantFs {
			if math.Float64bits(fs[i]) != math.Float64bits(wantFs[i]) || math.Float64bits(es[i]) != math.Float64bits(wantFs[i]) {
				t.Fatalf("trial %d, %d sources, component %d: one fold %v, per-edge folds %v, per-edge ⋃△ %v", trial, m, i, fs[i], es[i], wantFs[i])
			}
			if !difftest.Approx(fs[i], rps[i], 1e-12, 1e-12) {
				t.Fatalf("trial %d, %d sources, component %d: ⋃△ %v, retract+propagate %v", trial, m, i, fs[i], rps[i])
			}
		}
	}
}

func randVec(r *gen.RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2 * r.Float64()
	}
	return v
}

func scalar(a float64) []float64 { return []float64{a} }

func TestPageRankDeltaFactorises(t *testing.T) {
	checkFactorisation(t, factorCase[float64, float64]{
		p:     NewPageRank(),
		value: func(r *gen.RNG) float64 { return 2 * r.Float64() },
		agg:   func(r *gen.RNG) float64 { return 4 * r.Float64() },
		perEdge: func(agg *float64, oldV, newV float64, _ float64, oldDeg, newDeg int) {
			*agg += contributionPR(newV, newDeg) - contributionPR(oldV, oldDeg)
		},
		floats: scalar,
	})
}

func TestKatzDeltaFactorises(t *testing.T) {
	checkFactorisation(t, factorCase[float64, float64]{
		p:     NewKatz(),
		value: func(r *gen.RNG) float64 { return 2 * r.Float64() },
		agg:   func(r *gen.RNG) float64 { return 4 * r.Float64() },
		perEdge: func(agg *float64, oldV, newV float64, _ float64, _, _ int) {
			*agg += newV - oldV
		},
		floats: scalar,
	})
}

func TestCoEMDeltaFactorises(t *testing.T) {
	checkFactorisation(t, factorCase[float64, CoEMAgg]{
		p:     NewCoEM(nil, nil),
		value: func(r *gen.RNG) float64 { return r.Float64() },
		agg:   func(r *gen.RNG) CoEMAgg { return CoEMAgg{Sum: 3 * r.Float64(), W: 1 + 5*r.Float64()} },
		perEdge: func(agg *CoEMAgg, oldV, newV float64, w float64, _, _ int) {
			agg.Sum += (newV - oldV) * w
		},
		floats: func(a CoEMAgg) []float64 { return []float64{a.Sum, a.W} },
	})
}

func TestLabelPropDeltaFactorises(t *testing.T) {
	const labels = 4
	checkFactorisation(t, factorCase[[]float64, []float64]{
		p:     NewLabelProp(labels, nil),
		value: func(r *gen.RNG) []float64 { return randVec(r, labels) },
		agg:   func(r *gen.RNG) []float64 { return randVec(r, labels) },
		perEdge: func(agg *[]float64, oldV, newV []float64, w float64, _, _ int) {
			a := *agg
			for f := range a {
				a[f] += (newV[f] - oldV[f]) * w
			}
		},
		floats: func(a []float64) []float64 { return a },
	})
}

func TestCollabFilterDeltaFactorises(t *testing.T) {
	const k = 3
	p := NewCollabFilter(k)
	checkFactorisation(t, factorCase[[]float64, CFAgg]{
		p:     p,
		value: func(r *gen.RNG) []float64 { return randVec(r, k) },
		agg: func(r *gen.RNG) CFAgg {
			a := p.IdentityAgg()
			for n := r.Intn(4); n > 0; n-- {
				p.Propagate(&a, randVec(r, k), 0, 1, 2*r.Float64(), 0)
			}
			return a
		},
		perEdge: func(agg *CFAgg, oldV, newV []float64, w float64, _, _ int) {
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					agg.M[i*k+j] += newV[i]*newV[j] - oldV[i]*oldV[j]
				}
				agg.B[i] += (newV[i] - oldV[i]) * w
			}
		},
		floats: func(a CFAgg) []float64 { return append(append([]float64(nil), a.M...), a.B...) },
	})
}
