package algorithms

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// changedPairs returns value pairs that probe Changed at its edges:
// random values, equal ones, ±0, NaN and ±Inf, and pairs whose
// difference sits one step under, at and one step over tol.
func changedPairs(tol float64) [][2]float64 {
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -1, math.SmallestNonzeroFloat64}
	var ps [][2]float64
	for _, a := range specials {
		for _, b := range specials {
			ps = append(ps, [2]float64{a, b})
		}
	}
	r := gen.NewRNG(39)
	for i := 0; i < 500; i++ {
		a, b := 10*(r.Float64()-0.5), 10*(r.Float64()-0.5)
		ps = append(ps, [2]float64{a, b}, [2]float64{a, a}, [2]float64{a, math.Nextafter(a, math.Inf(1))})
		if tol > 0 {
			at := a + tol
			ps = append(ps, [2]float64{a, math.Nextafter(at, math.Inf(-1))}, [2]float64{a, at}, [2]float64{a, math.Nextafter(at, math.Inf(1))})
		}
	}
	return ps
}

// TestChangedIsSymmetric checks Program.Changed's contract on every
// shipped program, exact and with a tolerance: Changed(a, b) ==
// Changed(b, a). Refinement leaves the vertices it did not touch out of
// the hybrid's seed on the strength of it.
func TestChangedIsSymmetric(t *testing.T) {
	for _, tol := range []float64{0, 1e-3} {
		pr := NewPageRank()
		pr.Tolerance = tol
		ppr := NewPersonalizedPageRank([]core.VertexID{0})
		ppr.Tolerance = tol
		katz := NewKatz()
		katz.Tolerance = tol
		coem := NewCoEM([]core.VertexID{0}, []core.VertexID{1})
		coem.Tolerance = tol
		scalar := map[string]func(a, b float64) bool{
			"PageRank": pr.Changed, "PersonalizedPageRank": ppr.Changed,
			"Katz": katz.Changed, "CoEM": coem.Changed,
		}
		if tol == 0 { // the path programs have no tolerance
			scalar["SSSP"] = NewSSSP(0).Changed
			scalar["BFS"] = NewBFS(0).Changed
			scalar["ConnectedComponents"] = NewConnectedComponents().Changed
		}
		lp := NewLabelProp(3, nil)
		lp.Tolerance = tol
		cf := NewCollabFilter(3)
		cf.Tolerance = tol
		bp := NewBeliefProp(3)
		bp.Tolerance = tol
		vector := map[string]func(a, b []float64) bool{
			"LabelProp": lp.Changed, "CollabFilter": cf.Changed, "BeliefProp": bp.Changed,
		}

		pairs := changedPairs(tol)
		for name, changed := range scalar {
			t.Run(fmt.Sprintf("%s/tol=%g", name, tol), func(t *testing.T) {
				for _, p := range pairs {
					if ab, ba := changed(p[0], p[1]), changed(p[1], p[0]); ab != ba {
						t.Fatalf("Changed(%v, %v) = %v, Changed(%v, %v) = %v", p[0], p[1], ab, p[1], p[0], ba)
					}
				}
			})
		}
		for name, changed := range vector {
			t.Run(fmt.Sprintf("%s/tol=%g", name, tol), func(t *testing.T) {
				// Each pair goes into one component of two otherwise equal
				// random vectors.
				r := gen.NewRNG(40)
				for _, p := range pairs {
					a := []float64{r.Float64(), r.Float64(), r.Float64()}
					b := slices.Clone(a)
					k := r.Intn(len(a))
					a[k], b[k] = p[0], p[1]
					if ab, ba := changed(a, b), changed(b, a); ab != ba {
						t.Fatalf("Changed(%v, %v) = %v, Changed(%v, %v) = %v", a, b, ab, b, a, ba)
					}
				}
			})
		}
	}
}
