package core

import (
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// This file is the engine's edgeMap/vertexMap (§4: GraphBolt is built on
// Ligra's). Every traversal of e.g that the initial run, refinement
// (§3.3), the hybrid continuation (§4.2) and the Naive baseline perform
// is one of the kernels below — pullEdges, pushEdges, witnessEdges,
// foldEdges — plus computeVertices for ∮; their callers only choose the
// vertex set, the value accessor, the degrees and the sink. pushEdges
// (⋃△) takes no accessor: the step that changed a source's value emitted
// the source's change then — a DeltaProgram's delta, computed once per
// source — and the kernel reads it from scratch.
//
// One writer per word: forVertices is the only parallel vertex loop, and
// it hands each worker whole 512-vertex blocks. Every per-vertex array
// and bitset a loop body writes is indexed by the body's own vertex, so
// each aggregate, and each word of each bitset, has one writer per loop.
// That is why no kernel takes a lock and bitset.Set is a plain store.
// pullEdges and the dense direction of pushEdges give each worker its
// own targets; foldEdges, the sparse direction of pushEdges and
// witnessEdges' gain and loss steps run on the calling goroutine. Each
// target takes its contributions in ascending source order — sources are
// visited in ascending order, and adjacency lists are sorted by
// (neighbour, weight) in both directions — so every value is a function
// of the update stream alone, whichever direction a call takes and
// however many workers run it. (witnessEdges folds min/max, which no
// order can change.)
// foldEdges and the sparse direction of pushEdges write the edge body
// out in their loops because a call per edge is measurable (+10 % on the
// PageRank initial run); the dense direction gathers a target's deltas
// and folds them with one call.
// runLigra shares none of this on purpose: it is the independent
// from-scratch baseline the tests cross-check against.

// denseShare is Ligra's direction rule: a ⋃△ call whose sources plus
// their out-edges exceed |E|/denseShare pulls instead of pushing (when
// there is more than one worker, see dense).
const denseShare = 20

// blockVerts is the unit forVertices hands a worker: 512 vertices are 8
// bitset words, one 64-byte line. It is also the sequential cutoff: a
// set with fewer members runs inline on the caller, because waking
// workers costs more than walking it.
const blockVerts = 512

// direction pins pushEdges' traversal. The zero value, the only one the
// engine ever sets, lets denseShare decide; the package's tests force
// each side to check that both give the same result.
type direction int8

const (
	dirAuto direction = iota
	dirSparse
	dirDense
)

// vertexSet is a vertex loop's domain: every vertex of the graph, or the
// members of a bitset.
type vertexSet struct {
	n   int            // the vertex count, when set is nil
	set *bitset.Bitset // the members, otherwise
}

func allVertices(n int) vertexSet          { return vertexSet{n: n} }
func membersOf(b *bitset.Bitset) vertexSet { return vertexSet{set: b} }

// forVertices runs body(worker, v) for every v of vs and adds what the
// bodies return to work (when non-nil), once per chunk. Each worker
// claims whole blocks of blockVerts vertices and walks a block in
// ascending order, so a body may write any per-vertex bitset at its own
// v. A set with fewer than blockVerts members runs inline.
func forVertices(vs vertexSet, body func(worker int, v VertexID) int64, work *parallel.Counter) {
	if vs.set == nil {
		parallel.ForWorker(vs.n, blockVerts, func(worker, lo, hi int) {
			var cnt int64
			for v := lo; v < hi; v++ {
				cnt += body(worker, VertexID(v))
			}
			if work != nil {
				work.Add(worker, cnt)
			}
		})
		return
	}
	set := vs.set
	words, grain := set.Words(), blockVerts/64
	if set.Count() < blockVerts {
		grain = words
	}
	parallel.ForWorker(words, grain, func(worker, lo, hi int) {
		var cnt int64
		for i := lo; i < hi; i++ {
			for w := set.Word(i); w != 0; w &= w - 1 {
				cnt += body(worker, VertexID(i*64+bits.TrailingZeros64(w)))
			}
		}
		if work != nil {
			work.Add(worker, cnt)
		}
	})
}

// has reports whether v is in b. It is bitset.Get written as a word
// test: Go 1.24 does not inline Get into the Engine bodies when another
// package instantiates them, and the kernels test a bit per edge.
func has(b *bitset.Bitset, v VertexID) bool {
	return b.Word(int(v>>6))&(1<<(v&63)) != 0
}

// eachMember calls f for every member of b in ascending order, on the
// calling goroutine.
func eachMember(b *bitset.Bitset, f func(VertexID)) {
	for i := 0; i < b.Words(); i++ {
		for w := b.Word(i); w != 0; w &= w - 1 {
			f(VertexID(i*64 + bits.TrailingZeros64(w)))
		}
	}
}

// sink is where a kernel leaves its results: the aggregates it updates
// and the edge computations it performed. The targets it reached are
// always marked in e.sc.touched, which the caller clears per level.
type sink[A any] struct {
	agg []A
	// first, when non-nil, supplies agg[t] the first time a kernel reaches
	// t since touched was cleared (refinement starts a target's work
	// aggregate from its old aggregate at the level).
	first func(t VertexID) A
	work  *parallel.Counter
}

// start marks t touched and seeds its aggregate from first. Kernels call
// it once per target, when touched does not have t yet, from t's only
// writer.
func (to sink[A]) start(touched *bitset.Bitset, t VertexID) {
	touched.Set(t)
	if to.first != nil {
		to.agg[t] = to.first(t)
	}
}

// edgeOp is foldEdges' operator.
type edgeOp int

const (
	opPropagate edgeOp = iota // ⊎: fold in the value's contribution
	opRetract                 // ⋃-: take out the value's contribution
)

// srcChange is one retract+propagate ⋃△ source as pushEdges reads it:
// its contribution moves from (oldV, oldDeg) to (newV, newDeg).
type srcChange[V any] struct {
	oldV, newV     V
	oldDeg, newDeg int
}

// gather is one worker's buffer in pullDelta: the deltas and edge weights
// of one target's changed in-neighbours. Each is its own allocation,
// padded to a 64-byte line, so no two workers' buffers share a cache line
// (a shared array of slice headers measured 40 % slower).
type gather[A any] struct {
	ds []A
	ws []float64
	_  [64 - 48]byte
}

// emit records, for the next ⋃△ call with u among its sources, that u's
// value moves from oldV to newV and its out-degree from oldDeg to newDeg
// (its degree in e.g): a DeltaProgram's delta, computed here once, or the
// change a retract+propagate program re-derives contributions from. The
// steps that change values call it, so no kernel re-reads them; only push
// programs have a ⋃△.
func (e *Engine[V, A]) emit(u VertexID, oldV, newV V, oldDeg, newDeg int) {
	if e.delta != nil {
		e.delta.SourceDelta(&e.sc.delta[u], oldV, newV, oldDeg, newDeg)
		return
	}
	e.sc.src[u] = srcChange[V]{oldV, newV, oldDeg, newDeg}
}

// pullEdges re-aggregates every target from scratch over its whole
// in-neighbourhood: level 1 of every run, and witnessEdges' re-evaluation
// of non-decomposable aggregates (§3.3). Targets with in-edges are marked
// touched.
func (e *Engine[V, A]) pullEdges(targets vertexSet, valAt func(VertexID) V, to sink[A]) {
	touched := e.sc.touched
	forVertices(targets, func(_ int, v VertexID) int64 {
		na := e.p.IdentityAgg()
		us, ws := e.g.InNeighbors(v)
		for i, u := range us {
			deg := 0
			if e.deg {
				deg = e.g.OutDegree(u)
			}
			e.p.Propagate(&na, valAt(u), u, v, ws[i], deg)
		}
		to.agg[v] = na
		if len(us) > 0 {
			touched.Set(v)
		}
		return int64(len(us))
	}, to.work)
}

// pushEdges applies ⋃△ over every out-edge of every source — the
// transitive impact of sources whose value or out-degree changed — from
// what emit recorded for them. A small call pushes along out-edges on the
// calling goroutine, sources in ascending order, one AddDeltas per edge;
// one whose sources and out-edges exceed |E|/denseShare, with more than
// one worker to run it, is pullDelta.
func (e *Engine[V, A]) pushEdges(sources *bitset.Bitset, to sink[A]) {
	if sources.Count() == 0 {
		return
	}
	if e.dense(sources) {
		e.pullDelta(sources, to)
		return
	}
	touched := e.sc.touched
	var cnt int64
	if dp := e.delta; dp != nil {
		delta := e.sc.delta
		eachMember(sources, func(u VertexID) {
			ts, ws := e.g.OutNeighbors(u)
			// Full slice expressions: a capacity of 1 spares the
			// per-edge pointer masking of an open-ended reslice.
			d := delta[u : u+1 : u+1]
			for i, t := range ts {
				if !has(touched, t) {
					to.start(touched, t)
				}
				dp.AddDeltas(&to.agg[t], d, ws[i:i+1:i+1])
			}
			cnt += int64(len(ts))
		})
	} else {
		src := e.sc.src
		eachMember(sources, func(u VertexID) {
			c := &src[u]
			ts, ws := e.g.OutNeighbors(u)
			for i, t := range ts {
				if !has(touched, t) {
					to.start(touched, t)
				}
				agg := &to.agg[t]
				e.p.Retract(agg, c.oldV, u, t, ws[i], c.oldDeg)
				e.p.Propagate(agg, c.newV, u, t, ws[i], c.newDeg)
			}
			cnt += 2 * int64(len(ts))
		})
	}
	to.work.Add(0, cnt)
}

// dense reports whether a ⋃△ call over sources should pull. With one
// worker it never should: the pull exists to split targets across
// workers, and on its own it scans all |E| in-edges where the push walks
// only the sources' out-edges.
func (e *Engine[V, A]) dense(sources *bitset.Bitset) bool {
	switch e.dir {
	case dirSparse:
		return false
	case dirDense:
		return true
	}
	if parallel.Workers() == 1 {
		return false
	}
	var work int64
	for i := 0; i < sources.Words(); i++ {
		for w := sources.Word(i); w != 0; w &= w - 1 {
			work += 1 + int64(e.g.OutDegree(VertexID(i*64+bits.TrailingZeros64(w))))
			if work*denseShare > e.g.NumEdges() {
				return true
			}
		}
	}
	return false
}

// pullDelta is pushEdges' dense direction: each worker walks the
// in-edges of its own targets and takes the ones whose source is in
// sources. For a DeltaProgram it gathers a target's deltas and weights
// into the worker's buffer and folds them with one AddDeltas call. The
// edge visits, the targets touched and the work counted are pushEdges'.
func (e *Engine[V, A]) pullDelta(sources *bitset.Bitset, to sink[A]) {
	touched := e.sc.touched
	all := allVertices(e.g.NumVertices())
	if e.delta == nil {
		src := e.sc.src
		forVertices(all, func(_ int, t VertexID) int64 {
			var cnt int64
			us, ws := e.g.InNeighbors(t)
			for i, u := range us {
				if !has(sources, u) {
					continue
				}
				if cnt == 0 && !has(touched, t) {
					to.start(touched, t)
				}
				c, agg := &src[u], &to.agg[t]
				e.p.Retract(agg, c.oldV, u, t, ws[i], c.oldDeg)
				e.p.Propagate(agg, c.newV, u, t, ws[i], c.newDeg)
				cnt += 2
			}
			return cnt
		}, to.work)
		return
	}
	for len(e.sc.gathers) < parallel.Workers() {
		e.sc.gathers = append(e.sc.gathers, new(gather[A]))
	}
	delta, gathers := e.sc.delta, e.sc.gathers
	forVertices(all, func(worker int, t VertexID) int64 {
		us, ws := e.g.InNeighbors(t)
		buf := gathers[worker]
		if len(buf.ds) < len(us) {
			buf.ds, buf.ws = make([]A, 2*len(us)), make([]float64, 2*len(us))
		}
		ds, dw := buf.ds[:len(us)], buf.ws[:len(us)]
		m := 0
		for i, u := range us {
			if has(sources, u) {
				ds[m], dw[m] = delta[u], ws[i]
				m++
			}
		}
		if m == 0 {
			return 0
		}
		if !has(touched, t) {
			to.start(touched, t)
		}
		e.delta.AddDeltas(&to.agg[t], ds[:m], dw[:m])
		return int64(m)
	}, to.work)
}

// witnessEdges is pushEdges' counterpart for PullPrograms: it brings
// every target that res's edges or a changed source reach from its old
// aggregate (to.first, or to.agg in place) to its aggregate over e.g.
// oldValAt and oldG are the source values and graph the old aggregates
// were built from, newValAt the values the new ones are. It runs in
// three steps, the first two on the calling goroutine:
//
//  1. Gains: fold each added edge and each source's new value over its
//     out-edges in e.g into the target's aggregate.
//  2. Losses: ask Witness, against that aggregate, about each deleted
//     edge (original weight) and each source's old value over its
//     out-edges in oldG. A loss strictly worse than what the gains left
//     cannot have been the extremum of the old input set nor be one of
//     the new.
//  3. Re-pull: only targets with a witnessed loss (sc.seen)
//     re-aggregate their whole in-neighbourhood, split across workers.
//
// Each fold and each check is one edge computation. min/max is exact, so
// the result is bit for bit the re-pull of every reached target.
func (e *Engine[V, A]) witnessEdges(res graph.ApplyResult, oldG *graph.Graph, sources *bitset.Bitset, oldValAt, newValAt func(VertexID) V, to sink[A]) {
	touched := e.sc.touched
	repull := e.sc.seen
	repull.ClearAll()
	reach := func(t VertexID) *A {
		if !has(touched, t) {
			to.start(touched, t)
		}
		return &to.agg[t]
	}
	cnt := int64(len(res.Added))
	for _, ed := range res.Added {
		e.p.Propagate(reach(ed.To), newValAt(ed.From), ed.From, ed.To, ed.Weight, e.g.OutDegree(ed.From))
	}
	eachMember(sources, func(u VertexID) {
		newV := newValAt(u)
		ts, ws := e.g.OutNeighbors(u)
		for i, t := range ts {
			e.p.Propagate(reach(t), newV, u, t, ws[i], len(ts))
		}
		cnt += int64(len(ts))
	})
	lose := func(u, t VertexID, oldV V, w float64, deg int) {
		agg := reach(t)
		if has(repull, t) {
			return
		}
		cnt++
		if e.pull.Witness(*agg, oldV, u, t, w, deg) {
			repull.Set(t)
		}
	}
	for _, ed := range res.Deleted {
		lose(ed.From, ed.To, oldValAt(ed.From), ed.Weight, outDegree(oldG, ed.From))
	}
	eachMember(sources, func(u VertexID) {
		if int(u) >= oldG.NumVertices() {
			return
		}
		oldV := oldValAt(u)
		ts, ws := oldG.OutNeighbors(u)
		for i, t := range ts {
			lose(u, t, oldV, ws[i], len(ts))
		}
	})
	to.work.Add(0, cnt)
	e.pullEdges(membersOf(repull), newValAt, to)
}

// foldEdges applies op (⊎ or ⋃-) once per listed edge, in list order on
// the calling goroutine — the direct impact of a batch's added and
// deleted edges. degIn is the snapshot whose out-degree the contribution
// is normalized by.
func (e *Engine[V, A]) foldEdges(op edgeOp, edges []graph.Edge, valAt func(VertexID) V, degIn *graph.Graph, to sink[A]) {
	touched := e.sc.touched
	for _, ed := range edges {
		v, deg := valAt(ed.From), outDegree(degIn, ed.From)
		if !has(touched, ed.To) {
			to.start(touched, ed.To)
		}
		agg := &to.agg[ed.To]
		if op == opPropagate {
			e.p.Propagate(agg, v, ed.From, ed.To, ed.Weight, deg)
		} else {
			e.p.Retract(agg, v, ed.From, ed.To, ed.Weight, deg)
		}
	}
	to.work.Add(0, int64(len(edges)))
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
// the set; a vertex whose value changed keeps the previous one in e.old,
// joins next and emits its change for the next level's ⋃△. In tracking
// modes the aggregate of a touched vertex is recorded as its dependency
// at the level.
func (e *Engine[V, A]) computeVertices(vs vertexSet, level int, next *bitset.Bitset, work *parallel.Counter) {
	track, touched, push := e.tracking(), e.sc.touched, e.pull == nil
	forVertices(vs, func(_ int, v VertexID) int64 {
		nv := e.p.Compute(v, e.agg[v])
		if track && has(touched, v) {
			e.hist.Append(v, level, e.agg[v])
		}
		if e.p.Changed(e.vals[v], nv) {
			e.old[v] = e.vals[v]
			e.vals[v] = nv
			next.Set(v)
			if push {
				deg := e.g.OutDegree(v)
				e.emit(v, e.old[v], nv, deg, deg)
			}
		}
		return 1
	}, work)
}
