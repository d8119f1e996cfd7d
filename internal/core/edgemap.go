package core

import (
	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// This file is the engine's edgeMap/vertexMap (§4: GraphBolt is built on
// Ligra's). Every traversal of e.g that the initial run, refinement
// (§3.3), the hybrid continuation (§4.2) and the Naive baseline perform
// is one of the four kernels below — pullEdges, pushEdges, foldEdges,
// markOut — plus computeVertices for ∮; their callers only choose the
// vertex set, the value accessor, the degrees and the sink. The two
// kernels that update a shared aggregate (pushEdges, foldEdges) are the
// only users of the stripe locks, and pushEdges is the one place ⋃△ is
// issued as a delta or as a retract+propagate pair; both keep the locked
// body in the loop because a call per edge is measurable (+10 % on the
// PageRank initial run).
// runLigra shares none of this on purpose: it is the independent
// from-scratch baseline the tests cross-check against.

// vertexSet is a kernel's iteration domain: every vertex of the graph or
// an explicit list. "All" is a flag rather than a nil list because an
// empty bitset's Members(nil) is nil too, and that must mean no work.
type vertexSet struct {
	all  bool
	n    int        // the vertex count, when all
	list []VertexID // the members, otherwise
}

func allVertices(n int) vertexSet    { return vertexSet{all: true, n: n} }
func listOf(vs []VertexID) vertexSet { return vertexSet{list: vs} }

func (s vertexSet) at(k int) VertexID {
	if s.all {
		return VertexID(k)
	}
	return s.list[k]
}

func (s vertexSet) len() int {
	if s.all {
		return s.n
	}
	return len(s.list)
}

// sink is where a kernel leaves its results: the aggregates it updates
// and the edge computations it performed. The targets it reached are
// always marked in e.sc.touched, which the caller clears per level.
type sink[A any] struct {
	agg []A
	// first, when non-nil, supplies agg[t] the first time a push reaches
	// t since touched was cleared (refinement starts a target's work
	// aggregate from its old aggregate at the level). It runs under t's
	// stripe lock and only once per target, off the per-edge path.
	first func(t VertexID) A
	work  *parallel.Counter
}

// edgeOp is one of §3.3's incremental aggregation operators.
type edgeOp int

const (
	opPropagate edgeOp = iota // ⊎: fold in the new value's contribution
	opRetract                 // ⋃-: take out the old value's contribution
	opDelta                   // ⋃△: move the contribution from old to new
)

// pullEdges re-aggregates every target from scratch over its whole
// in-neighbourhood — the re-evaluation strategy for non-decomposable
// aggregations (§3.3), lock-free because each target has one writer.
// Targets with in-edges are marked touched.
func (e *Engine[V, A]) pullEdges(targets vertexSet, valAt func(VertexID) V, to sink[A]) {
	touched := e.sc.touched
	parallel.ForWorker(targets.len(), 64, func(worker, lo, hi int) {
		var cnt int64
		for k := lo; k < hi; k++ {
			v := targets.at(k)
			na := e.p.IdentityAgg()
			us, ws := e.g.InNeighbors(v)
			for i, u := range us {
				deg := 0
				if e.deg {
					deg = e.g.OutDegree(u)
				}
				e.p.Propagate(&na, valAt(u), u, v, ws[i], deg)
			}
			cnt += int64(len(us))
			to.agg[v] = na
			if len(us) > 0 {
				touched.Set(v)
			}
		}
		to.work.Add(worker, cnt)
	})
}

// pushEdges applies op over every out-edge of every source: opPropagate
// for level 1's full contributions, opDelta for the transitive impact of
// sources whose value or out-degree changed. at returns the source's old
// and new value and its old out-degree; the new one is the length of the
// list being walked.
func (e *Engine[V, A]) pushEdges(op edgeOp, sources vertexSet, grain int, at func(u VertexID) (oldV, newV V, oldDeg int), to sink[A]) {
	touched := e.sc.touched
	parallel.ForWorker(sources.len(), grain, func(worker, lo, hi int) {
		var cnt int64
		for k := lo; k < hi; k++ {
			u := sources.at(k)
			ts, ws := e.g.OutNeighbors(u)
			oldV, newV, oldDeg := at(u)
			for i, t := range ts {
				agg := &to.agg[t]
				e.locks.Lock(t)
				if touched.Set(t) && to.first != nil {
					*agg = to.first(t)
				}
				switch {
				case op == opPropagate:
					e.p.Propagate(agg, newV, u, t, ws[i], len(ts))
					cnt++
				case e.delta != nil:
					e.delta.PropagateDelta(agg, oldV, newV, u, t, ws[i], oldDeg, len(ts))
					cnt++
				default:
					e.p.Retract(agg, oldV, u, t, ws[i], oldDeg)
					e.p.Propagate(agg, newV, u, t, ws[i], len(ts))
					cnt += 2
				}
				e.locks.Unlock(t)
			}
		}
		to.work.Add(worker, cnt)
	})
}

// foldEdges applies op (⊎ or ⋃-) once per listed edge — the direct impact
// of a batch's added and deleted edges. degIn is the snapshot whose
// out-degree the contribution is normalized by.
func (e *Engine[V, A]) foldEdges(op edgeOp, edges []graph.Edge, valAt func(VertexID) V, degIn *graph.Graph, to sink[A]) {
	touched := e.sc.touched
	parallel.ForWorker(len(edges), 64, func(worker, lo, hi int) {
		for _, ed := range edges[lo:hi] {
			v, deg := valAt(ed.From), outDegree(degIn, ed.From)
			agg := &to.agg[ed.To]
			e.locks.Lock(ed.To)
			if touched.Set(ed.To) && to.first != nil {
				*agg = to.first(ed.To)
			}
			if op == opPropagate {
				e.p.Propagate(agg, v, ed.From, ed.To, ed.Weight, deg)
			} else {
				e.p.Retract(agg, v, ed.From, ed.To, ed.Weight, deg)
			}
			e.locks.Unlock(ed.To)
		}
		to.work.Add(worker, int64(hi-lo))
	})
}

// markOut adds the out-neighbours of sources to into.
func (e *Engine[V, A]) markOut(sources []VertexID, into *bitset.Bitset) {
	for _, u := range sources {
		ts, _ := e.g.OutNeighbors(u)
		for _, t := range ts {
			into.Set(t)
		}
	}
}

// markTargets adds the targets of a batch's added and deleted edges to
// into.
func markTargets(res graph.ApplyResult, into *bitset.Bitset) {
	for _, ed := range res.Added {
		into.Set(ed.To)
	}
	for _, ed := range res.Deleted {
		into.Set(ed.To)
	}
}

// current returns the value accessor for kernels that read the live
// values.
func (e *Engine[V, A]) current() func(VertexID) V {
	return func(u VertexID) V { return e.vals[u] }
}

// outDegree is u's out-degree in g, 0 for a vertex g does not have yet.
func outDegree(g *graph.Graph, u VertexID) int {
	if int(u) >= g.NumVertices() {
		return 0
	}
	return g.OutDegree(u)
}

// computeVertices is the vertexMap: c(v) = ∮(agg(v)) for every vertex of
// the set; a vertex whose value changed keeps the previous one in e.old
// and joins next. In tracking modes the aggregate of a touched vertex is
// recorded as its dependency at the level.
func (e *Engine[V, A]) computeVertices(vs vertexSet, grain, level int, next *bitset.Bitset, work *parallel.Counter) {
	track, touched := e.tracking(), e.sc.touched
	parallel.ForWorker(vs.len(), grain, func(worker, lo, hi int) {
		for k := lo; k < hi; k++ {
			v := vs.at(k)
			nv := e.p.Compute(v, e.agg[v])
			if track && touched.Get(v) {
				e.hist.Append(v, level, e.agg[v])
			}
			if e.p.Changed(e.vals[v], nv) {
				e.old[v] = e.vals[v]
				e.vals[v] = nv
				next.Set(v)
			}
		}
		work.Add(worker, int64(hi-lo))
	})
}
