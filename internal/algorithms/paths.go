package algorithms

import (
	"math"

	"repro/internal/core"
)

// SSSP computes single-source shortest paths under BSP semantics
// (Bellman–Ford layers):
//
//	д_i(v) = min_{(u,v)∈E} ( c_{i-1}(u) + weight(u,v) )
//	c_i(v) = min( init(v), д_i(v) )
//
// min is non-decomposable (§3.3): removing a contribution cannot be
// undone from the final value alone, so the program is a PullProgram.
// Refinement folds gained distances into the old minimum and re-pulls
// the full updated in-neighborhood only of a target whose lost distance
// could have been the minimum (Witness) — the re-evaluation strategy
// compared against KickStarter in §5.4(B).
type SSSP struct {
	// Source is the origin vertex (distance 0).
	Source core.VertexID
}

// NewSSSP returns an SSSP program rooted at source.
func NewSSSP(source core.VertexID) *SSSP { return &SSSP{Source: source} }

// InitValue implements core.Program.
func (p *SSSP) InitValue(v core.VertexID) float64 {
	if v == p.Source {
		return 0
	}
	return math.Inf(1)
}

// IdentityAgg implements core.Program.
func (p *SSSP) IdentityAgg() float64 { return math.Inf(1) }

// Propagate lowers the running min.
func (p *SSSP) Propagate(agg *float64, src float64, _, _ core.VertexID, w float64, _ int) {
	if d := src + w; d < *agg {
		*agg = d
	}
}

// Retract must never be called: min cannot be incrementally retracted.
func (p *SSSP) Retract(*float64, float64, core.VertexID, core.VertexID, float64, int) {
	panic("algorithms: Retract on non-decomposable min aggregation")
}

// Witness implements core.PullProgram: a lost distance could have been
// the minimum unless it exceeds agg.
func (p *SSSP) Witness(agg, src float64, _, _ core.VertexID, w float64, _ int) bool {
	return minWitness(agg, src+w)
}

// Compute implements ∮: a vertex keeps its own initial distance as a
// candidate (the source stays 0).
func (p *SSSP) Compute(v core.VertexID, agg float64) float64 {
	if init := p.InitValue(v); init < agg {
		return init
	}
	return agg
}

// Changed implements core.Program.
func (p *SSSP) Changed(oldV, newV float64) bool { return oldV != newV }

// CloneAgg implements core.Program.
func (p *SSSP) CloneAgg(a float64) float64 { return a }

// AggBytes implements core.Program.
func (p *SSSP) AggBytes(float64) int { return 8 }

var (
	_ core.Program[float64, float64]     = (*SSSP)(nil)
	_ core.PullProgram[float64, float64] = (*SSSP)(nil)
)

// BFS computes hop distance from a source — SSSP over unit weights; the
// edge weight is ignored so weighted graphs still give hop counts.
type BFS struct {
	Source core.VertexID
}

// NewBFS returns a BFS program rooted at source.
func NewBFS(source core.VertexID) *BFS { return &BFS{Source: source} }

// InitValue implements core.Program.
func (p *BFS) InitValue(v core.VertexID) float64 {
	if v == p.Source {
		return 0
	}
	return math.Inf(1)
}

// IdentityAgg implements core.Program.
func (p *BFS) IdentityAgg() float64 { return math.Inf(1) }

// Propagate lowers the running min of hop counts.
func (p *BFS) Propagate(agg *float64, src float64, _, _ core.VertexID, _ float64, _ int) {
	if d := src + 1; d < *agg {
		*agg = d
	}
}

// Retract must never be called (non-decomposable).
func (p *BFS) Retract(*float64, float64, core.VertexID, core.VertexID, float64, int) {
	panic("algorithms: Retract on non-decomposable min aggregation")
}

// Witness implements core.PullProgram.
func (p *BFS) Witness(agg, src float64, _, _ core.VertexID, _ float64, _ int) bool {
	return minWitness(agg, src+1)
}

// Compute implements ∮.
func (p *BFS) Compute(v core.VertexID, agg float64) float64 {
	if init := p.InitValue(v); init < agg {
		return init
	}
	return agg
}

// Changed implements core.Program.
func (p *BFS) Changed(oldV, newV float64) bool { return oldV != newV }

// CloneAgg implements core.Program.
func (p *BFS) CloneAgg(a float64) float64 { return a }

// AggBytes implements core.Program.
func (p *BFS) AggBytes(float64) int { return 8 }

var (
	_ core.Program[float64, float64]     = (*BFS)(nil)
	_ core.PullProgram[float64, float64] = (*BFS)(nil)
)

// ConnectedComponents labels vertices with the minimum reachable vertex
// id, converging to weakly connected components on symmetric graphs
// (run it over graphs built with both edge directions). Like SSSP it is
// a non-decomposable min aggregation.
type ConnectedComponents struct{}

// NewConnectedComponents returns a CC program.
func NewConnectedComponents() *ConnectedComponents { return &ConnectedComponents{} }

// InitValue labels each vertex with itself.
func (p *ConnectedComponents) InitValue(v core.VertexID) float64 { return float64(v) }

// IdentityAgg implements core.Program.
func (p *ConnectedComponents) IdentityAgg() float64 { return math.Inf(1) }

// Propagate lowers the label min.
func (p *ConnectedComponents) Propagate(agg *float64, src float64, _, _ core.VertexID, _ float64, _ int) {
	if src < *agg {
		*agg = src
	}
}

// Retract must never be called (non-decomposable).
func (p *ConnectedComponents) Retract(*float64, float64, core.VertexID, core.VertexID, float64, int) {
	panic("algorithms: Retract on non-decomposable min aggregation")
}

// Witness implements core.PullProgram.
func (p *ConnectedComponents) Witness(agg, src float64, _, _ core.VertexID, _ float64, _ int) bool {
	return minWitness(agg, src)
}

// Compute keeps the vertex's own id as a candidate label.
func (p *ConnectedComponents) Compute(v core.VertexID, agg float64) float64 {
	if own := float64(v); own < agg {
		return own
	}
	return agg
}

// Changed implements core.Program.
func (p *ConnectedComponents) Changed(oldV, newV float64) bool { return oldV != newV }

// CloneAgg implements core.Program.
func (p *ConnectedComponents) CloneAgg(a float64) float64 { return a }

// AggBytes implements core.Program.
func (p *ConnectedComponents) AggBytes(float64) int { return 8 }

var (
	_ core.Program[float64, float64]     = (*ConnectedComponents)(nil)
	_ core.PullProgram[float64, float64] = (*ConnectedComponents)(nil)
)

// minWitness is Witness for a min aggregate: a lost contribution d may
// have been the minimum when it ties or beats agg. An infinite one never
// contributed anything.
func minWitness(agg, d float64) bool {
	return d <= agg && !math.IsInf(d, 1)
}
