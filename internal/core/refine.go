package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// ApplyBatch applies a structural mutation batch and brings the computed
// values up to date for the new snapshot according to the engine mode:
// dependency-driven refinement (GraphBolt), restart (Ligra/GB-Reset), or
// direct value reuse (Naive), then publishes the result. It returns the
// work performed by this call. It is Stage followed by Publish.
func (e *Engine[V, A]) ApplyBatch(b graph.Batch) (Stats, error) {
	st, err := e.Stage(b)
	if err != nil {
		return Stats{}, err
	}
	e.Publish()
	return st, nil
}

// Stage is ApplyBatch without the publish: it brings the engine's
// private state up to date for b while readers keep seeing the last
// published generation. Publish makes the staged state visible. A durable
// wrapper stages while the batch's journal record is being synced and
// publishes only once it is durable.
//
// The batch is validated first (graph.Batch.Validate): malformed input —
// NaN/Inf weights, vertex ids beyond graph.MaxVertexID — is rejected
// with an error before any state changes. A panic escaping the program's
// vertex functions is recovered and returned as an error (wrapping
// *parallel.PanicError with the offending vertex range); the engine's
// in-memory state is undefined afterwards and the engine must be
// discarded or rebuilt (see Rebuild).
func (e *Engine[V, A]) Stage(b graph.Batch) (Stats, error) {
	if err := b.Validate(); err != nil {
		return Stats{}, fmt.Errorf("core: apply batch: %w", err)
	}
	var st Stats
	err := parallel.Catch(func() {
		start := time.Now()
		oldG := e.g
		newG, res := oldG.Apply(b)
		e.opts.Flight.Phase("graph_apply", start, time.Since(start))

		switch {
		case !e.ran:
			// No prior run: install the new snapshot and compute fresh.
			e.g = newG
			st = e.run()
			// run already recorded its own duration/stats/metrics.
			e.opts.Flight.Phase("apply_batch", start, time.Since(start))
			return
		case e.opts.Mode == ModeLigra || e.opts.Mode == ModeReset:
			e.g = newG
			e.resetState()
			if e.opts.Mode == ModeLigra {
				st = e.runLigra()
			} else {
				st = e.runDelta(1, nil, e.opts.MaxIterations)
			}
		case e.opts.Mode == ModeNaive:
			st = e.naiveContinue(oldG, newG, res)
		default: // ModeGraphBolt, ModeGraphBoltRP
			st = e.refine(oldG, newG, res)
		}
		st.Duration = time.Since(start)
		st.TrackedSnapshotBytes = e.HistoryBytes()
		e.stats.Add(st)
		e.met.observeBatch(st)
		e.refreshTrackingMetrics()
		e.opts.Flight.Phase("apply_batch", start, time.Since(start))
	})
	if err != nil {
		return Stats{}, fmt.Errorf("core: apply batch: %w", err)
	}
	return st, nil
}

// tailFix records a vertex whose history was extended by refinement: if a
// later level leaves it untouched, the stored tail must be restored so
// that past-last lookups keep returning the true stabilized aggregate.
type tailFix[A any] struct {
	v    VertexID
	tail A
}

// refine performs dependency-driven value refinement (§3.3): iterate the
// tracked levels 1..H, at each level applying the direct impact of added
// edges (⊎ with old source values), deleted edges (⋃- with old values and
// weights), and the transitive impact of changed sources (⋃△), then
// recomputing the affected vertex values (a PullProgram's level is one
// witnessEdges call instead). Past the horizon it switches to
// hybrid execution (§4.2): plain delta-based BSP seeded with the changed
// sets at the horizon.
func (e *Engine[V, A]) refine(oldG, newG *graph.Graph, res graph.ApplyResult) Stats {
	start := time.Now()
	var st Stats
	e.g = newG
	n := newG.NumVertices()
	oldN := oldG.NumVertices()
	e.grow(n)

	L := e.level
	H := e.opts.Horizon
	if H > L {
		H = L
	}

	edgeWork := parallel.NewCounter()
	vertWork := parallel.NewCounter()

	// Vertices whose out-degree changed: for degree-normalized programs
	// their contribution over every out-edge changes at every level.
	sc := &e.sc
	degChanged := e.degreeChanged(oldG, newG, res)
	degSet := sc.degSet
	degSet.ClearAll()
	for _, u := range degChanged {
		degSet.Set(u)
	}
	push := e.pull == nil // a push program's sources emit their change

	// Rolling stash of the old values at the previous level for the
	// vertices whose history entry there was overwritten — exactly that
	// level's touched set, kept in sc.prevTouched. Every other vertex kept
	// its entry, so its old value is one history read.
	stash, nextStash := sc.stash, sc.nextStash
	oldAgg := sc.oldAgg
	sc.prevTouched.ClearAll()

	// pending maps extended vertices to their original stabilized tail
	// aggregate; it is read-only during parallel phases and mutated only
	// between levels. Only levels below H add to it: nothing reads it
	// after the last one.
	pending := make(map[VertexID]A)
	pendingTail := func(v VertexID) (A, bool) {
		if len(pending) == 0 { // skip the probe while nothing is pending
			var none A
			return none, false
		}
		a, ok := pending[v]
		return a, ok
	}

	aggWork := sc.aggWork
	workers := parallel.Workers() // for per-worker extension collectors

	touchedAny := sc.touchedAny // union across levels, for the hand-off
	touchedAny.ClearAll()
	// sources enters level i holding the vertices whose old and new values
	// differ at level i-1; the level adds degChanged to it.
	sources := sc.fronts[0]
	sources.ClearAll()
	to := sink[A]{agg: aggWork, work: edgeWork}

	for i := 1; i <= H; i++ {
		j := i - 1
		touched, prevTouched := sc.touched, sc.prevTouched
		oldValAt := func(u VertexID) V {
			if has(prevTouched, u) {
				return stash[u]
			}
			return e.valueAt(u, j)
		}
		// New values at level j are post-refinement history. Only
		// witnessEdges uses this accessor; its re-pull reads one value per
		// in-edge, and testing the stash first cost more than it saved.
		newValAt := func(u VertexID) V { return e.valueAt(u, j) }

		// A degree-changed source emitted its change if the previous
		// level touched it; otherwise its value stands at level j.
		for _, u := range degChanged {
			sources.Set(u)
			if push && !has(prevTouched, u) {
				v := e.valueAt(u, j)
				e.emit(u, v, v, outDegree(oldG, u), newG.OutDegree(u))
			}
		}
		touched.ClearAll()
		// The work aggregate of a target starts from its old aggregate at
		// this level, which the compute phase reads back from oldAgg.
		to.first = func(t VertexID) A {
			a, ok := pendingTail(t)
			if !ok {
				if a, ok = e.hist.Lookup(t, i); !ok {
					a = e.p.IdentityAgg()
				}
			}
			oldAgg[t] = a
			if e.flat {
				return a
			}
			return e.p.CloneAgg(a)
		}
		if e.pull != nil {
			// Non-decomposable: fold what the batch and the changed
			// sources gain, and re-pull only targets that may have lost
			// their extremum.
			e.witnessEdges(res, oldG, sources, oldValAt, newValAt, to)
		} else {
			// (a) Direct impact: added edges re-propagate old source
			// values (⊎); deleted edges retract them (⋃-), both with old
			// degrees and the deleted edges' original weights.
			e.foldEdges(opPropagate, res.Added, oldValAt, oldG, to)
			e.foldEdges(opRetract, res.Deleted, oldValAt, oldG, to)

			// (b) Transitive impact (⋃△): sources whose value (or
			// out-degree) changed update their contribution over every
			// out-edge of the new graph.
			e.pushEdges(sources, to)
		}

		// Compute phase: derive old and new values at this level, store
		// the refined aggregate, build the next changed set, and emit
		// the change of each of next level's sources that it touches.
		changed := sc.otherFront(sources)
		extensions := make([][]tailFix[A], workers)
		forVertices(membersOf(touched), func(worker int, v VertexID) int64 {
			// Refining at or past the final stored entry destroys the
			// stabilized tail that lookups beyond it rely on: remember it
			// so the next level's first keeps answering correctly and so
			// it can be restored once the vertex goes untouched again.
			if i < H && e.hist.Last(v) <= i {
				if _, ok := pendingTail(v); !ok {
					extensions[worker] = append(extensions[worker], tailFix[A]{v, e.p.CloneAgg(oldAgg[v])})
				}
			}
			oldVal := e.p.Compute(v, oldAgg[v])
			newVal := e.p.Compute(v, aggWork[v])
			e.hist.Append(v, i, aggWork[v])
			nextStash[v] = oldVal
			ch, dc := e.p.Changed(oldVal, newVal), has(degSet, v)
			if ch {
				changed.Set(v)
			}
			if push && (ch || dc) {
				newDeg := newG.OutDegree(v)
				oldDeg := newDeg
				if dc {
					oldDeg = outDegree(oldG, v)
				}
				e.emit(v, oldVal, newVal, oldDeg, newDeg)
			}
			return 1
		}, vertWork)

		// Tail restores: extended vertices left untouched at this level
		// revert to their stabilized aggregate from here on; write that
		// tail at this level and retire them.
		for v, tail := range pending {
			if !has(touched, v) {
				e.hist.Append(v, i, tail)
				delete(pending, v)
			}
		}
		for _, list := range extensions {
			for _, fix := range list {
				pending[fix.v] = fix.tail
			}
		}

		touchedAny.Or(touched)
		stash, nextStash = nextStash, stash
		sc.touched, sc.prevTouched = prevTouched, touched
		sources = changed
		st.RefineIterations++
	}

	// Hybrid execution (§4.2): materialize the refined state at level H
	// and continue plain delta-based BSP from H+1. The post-refinement
	// history *is* the new run for levels ≤ H, so the exact seed — every
	// vertex whose value changed between levels H-1 and H — falls out of
	// value reconstructions. (This subsumes the original run's
	// changed-at-horizon bit-vector and the refinement's changed sets.)
	//
	// When the horizon reaches the previous run's depth (H == L, the
	// common no-horizontal-pruning case), untouched vertices already hold
	// c_L == c^T_H in vals and д_L == д^T_H in agg, so only refined and
	// newly added vertices need refreshing — this keeps per-batch work
	// proportional to the refinement's reach instead of |V|.
	//
	// Nor can an untouched vertex seed the hybrid: runDelta stops before
	// MaxIterations only after a level with no changed vertex, so the old
	// run left !Changed(vals[v], c_{L-1}(v)) for every v, and Changed is
	// symmetric (TestStoppedRunHasConverged checks this after every batch).
	canContinue := H < e.opts.MaxIterations
	seed := sc.fronts[1]
	seed.ClearAll()
	// refresh materializes v at level H and seeds v if it changed from H-1.
	refresh := func(v int) {
		vid := VertexID(v)
		e.vals[v] = e.valueAt(vid, H)
		a, ok := e.hist.Lookup(vid, H)
		if !ok {
			a = e.p.IdentityAgg()
		}
		e.agg[v] = e.p.CloneAgg(a)
		if !canContinue {
			return
		}
		prev := e.valueAt(vid, H-1)
		if e.p.Changed(prev, e.vals[v]) {
			e.old[v] = prev
			seed.Set(vid)
			if push {
				deg := newG.OutDegree(vid)
				e.emit(vid, prev, e.vals[v], deg, deg)
			}
		}
	}
	if H == L {
		forVertices(membersOf(touchedAny), func(_ int, v VertexID) int64 {
			refresh(int(v))
			return 0
		}, nil)
		for v := oldN; v < n; v++ { // vertices added by this batch
			if !touchedAny.Get(VertexID(v)) {
				refresh(v)
			}
		}
	} else {
		// Horizontal pruning rewound the state to level H < L: every
		// vertex's value/aggregate must be re-materialized.
		// For's DefaultGrain chunks are whole 512-vertex blocks: one writer per word of seed.
		parallel.For(n, func(v int) { refresh(v) })
	}
	e.level = H
	refineEdges := edgeWork.Sum()
	hybridStart := time.Now()
	e.opts.Flight.Phase("refine", start, hybridStart.Sub(start))
	st2 := e.runDelta(H+1, seed, e.opts.MaxIterations)
	e.opts.Flight.Phase("hybrid", hybridStart, time.Since(hybridStart))

	st.EdgeComputations = refineEdges + st2.EdgeComputations
	st.VertexComputations = vertWork.Sum() + st2.VertexComputations
	st.Iterations = st2.Iterations
	st.HybridIterations = st2.Iterations
	e.met.refineEdges.Add(refineEdges)
	e.met.hybridEdges.Add(st2.EdgeComputations)
	return st
}

// mutatedSources returns the distinct sources of the batch's added and
// deleted edges in ascending order. Everything derived from it — which
// sources re-push, and with that the order floating-point contributions
// are summed in — is then a function of the batch, not of map iteration.
func mutatedSources(res graph.ApplyResult) []VertexID {
	us := make([]VertexID, 0, len(res.Added)+len(res.Deleted))
	for _, ed := range res.Added {
		us = append(us, ed.From)
	}
	for _, ed := range res.Deleted {
		us = append(us, ed.From)
	}
	slices.Sort(us)
	return slices.Compact(us)
}

// degreeChanged returns, in ascending order, the sources of the batch's
// edges whose out-degree differs between the two snapshots — none for
// programs whose contributions do not depend on it.
func (e *Engine[V, A]) degreeChanged(oldG, newG *graph.Graph, res graph.ApplyResult) []VertexID {
	if !e.deg {
		return nil
	}
	var out []VertexID
	for _, u := range mutatedSources(res) {
		if outDegree(oldG, u) != newG.OutDegree(u) {
			out = append(out, u)
		}
	}
	return out
}

// naiveContinue is the incorrect-by-design baseline of §2.2: reuse the
// converged values directly, folding the structural change into the
// running aggregates with *current* values, then keep iterating. It
// converges to S*(G^T, R_G) rather than S*(G^T, I). A pull program also
// folds in the frontier the previous run left unsent, so that a run cut
// short by MaxIterations resumes where it stopped.
func (e *Engine[V, A]) naiveContinue(oldG, newG *graph.Graph, res graph.ApplyResult) Stats {
	e.g = newG
	e.grow(newG.NumVertices())

	edgeWork := parallel.NewCounter()
	vertWork := parallel.NewCounter()
	touched := e.sc.touched
	touched.ClearAll()
	to := sink[A]{agg: e.agg, work: edgeWork}
	sources := e.sc.fronts[1]
	sources.ClearAll()

	if e.pull != nil {
		// e.agg aggregates current values over oldG, except that the
		// unsent frontier's out-neighbours still hold its e.old values.
		if e.unsent != nil {
			eachMember(e.unsent, func(u VertexID) { sources.Set(u) })
		}
		oldValAt := func(u VertexID) V {
			if sources.Get(u) {
				return e.old[u]
			}
			return e.vals[u]
		}
		e.witnessEdges(res, oldG, sources, oldValAt, e.current(), to)
	} else {
		// Added edges carry the new out-degree, deleted ones the old.
		e.foldEdges(opPropagate, res.Added, e.current(), newG, to)
		e.foldEdges(opRetract, res.Deleted, e.current(), oldG, to)
		for _, u := range e.degreeChanged(oldG, newG, res) {
			sources.Set(u)
			e.emit(u, e.vals[u], e.vals[u], outDegree(oldG, u), newG.OutDegree(u))
		}
		e.pushEdges(sources, to)
	}

	seed := e.sc.fronts[0]
	seed.ClearAll()
	e.computeVertices(membersOf(touched), e.level, seed, vertWork)
	st := e.runDelta(e.level+1, seed, e.level+e.opts.MaxIterations)
	st.EdgeComputations += edgeWork.Sum()
	st.VertexComputations += vertWork.Sum()
	return st
}
