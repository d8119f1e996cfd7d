// Package core implements the GraphBolt processing engine: synchronous
// (BSP) iterative graph computation with selective scheduling,
// dependency tracking as aggregation values, dependency-driven value
// refinement on graph mutation, pruning, and computation-aware hybrid
// execution — the system of §3–§4 of the paper. It also provides the
// Ligra and GB-Reset baseline execution modes used throughout the
// evaluation.
package core

import "repro/internal/graph"

// VertexID aliases the graph package's vertex identifier.
type VertexID = graph.VertexID

// Program defines a synchronous iterative graph algorithm over vertex
// values of type V combined through aggregates of type A. It expresses
// the paper's generalized incremental programming model (§3.3):
//
//	д_i(v) = ⊕_{(u,v)∈E} contribution(c_{i-1}(u))   (Propagate = ⊎)
//	c_i(v) = ∮(д_i(v))                               (Compute)
//
// with Retract (⋃-) undoing a contribution, enabling incremental edge
// deletion and the retract/propagate form of ⋃△. Aggregation must be
// commutative and associative. Complex aggregations (Belief Propagation,
// Collaborative Filtering) implement Retract by re-deriving the old
// discrete contribution from the old source value — the paper's
// "on-the-fly evaluation of discrete contributions".
type Program[V, A any] interface {
	// InitValue returns c_0(v). It must be deterministic.
	InitValue(v VertexID) V

	// IdentityAgg returns the aggregate of a vertex that has received no
	// contributions (0 for sums, all-ones for products, +inf for min).
	IdentityAgg() A

	// Propagate folds the contribution of source value src over edge
	// (u,v) with weight w into *agg (the ⊎ operator). srcOutDeg is the
	// out-degree of u in the graph snapshot the contribution belongs to
	// (old snapshot for re-propagation of old values, new snapshot for
	// new values), as required by degree-normalized algorithms. It is
	// meaningful only for DegreeSensitive programs: any other program
	// may be handed 0 (the pull kernel skips the per-in-edge lookup).
	Propagate(agg *A, src V, u, v VertexID, w float64, srcOutDeg int)

	// Retract removes a previously propagated contribution (⋃-);
	// srcOutDeg as for Propagate. Non-decomposable programs (see
	// PullProgram) may implement it as a panic; the engine never calls
	// Retract for them.
	Retract(agg *A, src V, u, v VertexID, w float64, srcOutDeg int)

	// Compute applies ∮ to produce the vertex value from its aggregate.
	// It must be a pure function of (v, agg).
	Compute(v VertexID, agg A) V

	// Changed reports whether the value change is significant enough to
	// propagate (selective scheduling). Exact inequality gives exact BSP
	// semantics; a tolerance trades accuracy for work. It must be
	// symmetric, Changed(a, b) == Changed(b, a), as refinement assumes.
	Changed(oldV, newV V) bool

	// CloneAgg deep-copies an aggregate (identity for value types: the
	// engine copies an aggregate type without pointers by assignment and
	// does not call it).
	CloneAgg(a A) A

	// AggBytes approximates the heap footprint of one aggregate, for the
	// dependency store's memory accounting (Table 9). For an aggregate
	// type without pointers it must not depend on the value.
	AggBytes(a A) int
}

// DeltaProgram is implemented by programs whose aggregation admits a
// single-pass change-in-contribution update (simple decomposable
// aggregations like sums), the ⋃△ of §3.3 split as Ligra's PageRankDelta
// splits it: a source's change in contribution is computed once per
// source (SourceDelta), and each target folds the changes of its changed
// in-neighbours with their edge weights (AddDeltas). SourceDelta
// followed by AddDeltas over edge (u,v) must be equivalent to Retract of
// the old value followed by Propagate of the new one. The engine uses it
// to halve edge work and to take the per-source part off the edges;
// without it (or in the GraphBolt-RP mode of Fig. 8) the engine issues
// the retract/propagate pair.
type DeltaProgram[V, A any] interface {
	// SourceDelta writes into *d the change in the contribution of a
	// source whose value moves from oldSrc at out-degree oldDeg to newSrc
	// at out-degree newDeg (degrees as for Propagate). It may reuse the
	// storage *d already holds.
	SourceDelta(d *A, oldSrc, newSrc V, oldDeg, newDeg int)

	// AddDeltas folds ds[k], carried by an edge of weight ws[k], into
	// *agg for every k in order.
	AddDeltas(agg *A, ds []A, ws []float64)
}

// PullProgram is implemented by programs whose aggregation is
// non-decomposable (§3.3 "Aggregation Properties & Extensions"):
// min/max-style aggregates from which a contribution cannot be removed.
// Refinement folds the contributions a change gains into a target's old
// aggregate with Propagate and asks Witness about each one it loses; only
// a target with a witnessed loss re-aggregates its whole in-neighbourhood
// of the new graph.
type PullProgram[V, A any] interface {
	// Witness reports whether the lost contribution of source value src
	// over edge (u,v) with weight w (srcOutDeg as for Propagate) could be
	// the extremum of agg, the target's aggregate with every gained
	// contribution already folded in. False promises that dropping the
	// contribution cannot change agg, so a contribution that ties agg
	// must answer true. True is always legal: the target re-pulls.
	Witness(agg A, src V, u, v VertexID, w float64, srcOutDeg int) bool
}

// DegreeSensitive is implemented by programs whose edge contribution
// depends on the source's out-degree (PageRank). The engine then treats
// every vertex whose out-degree changed as a changed source in every
// refined iteration, so degree renormalization propagates.
type DegreeSensitive interface {
	UsesOutDegree() bool
}

func usesOutDegree[V, A any](p Program[V, A]) bool {
	if ds, ok := any(p).(DegreeSensitive); ok {
		return ds.UsesOutDegree()
	}
	return false
}
