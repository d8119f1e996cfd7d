package core

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/deps"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// Engine executes a Program over a streaming graph. Construct with
// NewEngine, call Run once for the initial computation, then ApplyBatch
// for every mutation batch; Values returns the current results.
//
// Concurrency: the engine is single-writer, multi-reader. Run,
// ApplyBatch (or Stage and Publish), Rebuild and ReadSnapshot must be
// serialized (each call is
// internally parallel), but Snapshot, Values, CopyValues and Level are
// lock-free and safe from any goroutine at any time — they read the
// immutable ResultSnapshot the writer published last. The serve layer
// (internal/serve, graphbolt.Server) builds on exactly this split.
type Engine[V, A any] struct {
	p     Program[V, A]
	delta DeltaProgram[V, A] // nil when unsupported or in RP mode
	pull  PullProgram[V, A]  // nil for decomposable aggregations
	deg   bool               // contribution depends on source out-degree
	flat  bool               // A holds no pointers: assignment copies it
	opts  Options

	g    *graph.Graph
	vals []V // c_level
	old  []V // value before the last change, per vertex
	agg  []A // running aggregates д_level
	hist *deps.Store[A]
	// unsent is, in ModeNaive for pull programs, the changed set of the
	// last level runDelta ran when MaxIterations cut it short (nil when it
	// converged): its members' out-neighbours still aggregate their e.old
	// values, which naiveContinue must know to fold in the change.
	unsent *bitset.Bitset

	sc    scratch[V, A]
	dir   direction // pushEdges' traversal; dirAuto outside tests
	level int       // completed BSP levels
	ran   bool

	// snap is the atomically published read view: an immutable
	// (graph, values, level) triple readers access lock-free while the
	// writer refines the live state above.
	snap atomic.Pointer[ResultSnapshot[V]]

	// ring retains the last Options.Retain published snapshots for
	// point-in-time reads (nil when retention is off).
	ring *HistoryRing[V]

	stats Stats         // cumulative
	met   engineMetrics // zero value when instrumentation is off
}

// scratch is the working memory of runDelta, refine and naiveContinue,
// owned by the engine so that a batch allocates nothing proportional to
// |V|. Nothing in it carries meaning from one call to the next: every
// slice entry is valid only where the bitset named beside it says so, and
// each bitset is cleared (n/64 words) where its use begins, so growing
// may simply replace everything.
type scratch[V, A any] struct {
	n int // vertices the members below can hold

	// refine: rolling stash of the old values at the previous level, the
	// work aggregates of the current one and the old aggregates they
	// started from.
	stash, nextStash []V            // valid where prevTouched / touched
	aggWork, oldAgg  []A            // valid where touched
	touchedAny       *bitset.Bitset // union of touched across refined levels
	degSet           *bitset.Bitset // refine's degree-changed vertices

	touched *bitset.Bitset // targets updated at the current level
	// prevTouched is refine's touched of the previous level: the two swap
	// at the end of each level.
	prevTouched *bitset.Bitset
	seen        *bitset.Bitset // witnessEdges' re-pull set
	// fronts are the changed sets: refine builds each level's sources and
	// changed set in them, then the hybrid seed; runDelta alternates
	// between them.
	fronts [2]*bitset.Bitset

	// What pushEdges reads of each source, written by the step that
	// changed it (emit) and valid where the call's source set has the
	// source: a DeltaProgram's delta, or a retract+propagate program's
	// change. Pull programs use neither.
	delta []A
	src   []srcChange[V]
	// gathers are pullDelta's per-worker buffers, made on first use.
	gathers []*gather[A]
}

// size makes the scratch hold n vertices, with headroom so a stream that
// adds vertices batch after batch reallocates O(log) times. push sizes the
// ⋃△ source scratch too, which pull programs never use: deltas for a
// DeltaProgram, changes otherwise.
func (s *scratch[V, A]) size(n int, push, deltas bool) {
	if n <= s.n {
		return
	}
	n += n / 4
	*s = scratch[V, A]{
		n:           n,
		stash:       make([]V, n),
		nextStash:   make([]V, n),
		aggWork:     make([]A, n),
		oldAgg:      make([]A, n),
		touchedAny:  bitset.New(n),
		degSet:      bitset.New(n),
		touched:     bitset.New(n),
		prevTouched: bitset.New(n),
		seen:        bitset.New(n),
		fronts:      [2]*bitset.Bitset{bitset.New(n), bitset.New(n)},
	}
	switch {
	case push && deltas:
		s.delta = make([]A, n)
	case push:
		s.src = make([]srcChange[V], n)
	}
}

// otherFront returns the scratch changed set that is not f, emptied.
func (s *scratch[V, A]) otherFront(f *bitset.Bitset) *bitset.Bitset {
	o := s.fronts[0]
	if f == o {
		o = s.fronts[1]
	}
	o.ClearAll()
	return o
}

// NewEngine creates an engine over g. The graph may be nil only if a
// graph is installed before Run via ApplyBatch on an empty base.
func NewEngine[V, A any](g *graph.Graph, p Program[V, A], opts Options) (*Engine[V, A], error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	if p == nil {
		return nil, fmt.Errorf("core: nil program")
	}
	opts = opts.withDefaults()
	e := &Engine[V, A]{
		p:    p,
		deg:  usesOutDegree(p),
		flat: pointerFree(reflect.TypeFor[A]()),
		opts: opts,
		g:    g,
	}
	e.pull, _ = any(p).(PullProgram[V, A])
	if d, ok := any(p).(DeltaProgram[V, A]); ok && opts.Mode != ModeGraphBoltRP {
		e.delta = d
	}
	if opts.Retain > 1 {
		e.ring = NewHistoryRing[V](opts.Retain)
	}
	e.met = newEngineMetrics(opts.Metrics)
	return e, nil
}

// SpawnForGraph creates a fresh engine over g with this engine's
// program and options — the same algorithm, mode, iteration budget and
// retention depth, but independent state. The partition layer uses it
// to turn one configured engine into N per-shard engines, each over its
// shard's edge subset. The new engine has not run yet.
func (e *Engine[V, A]) SpawnForGraph(g *graph.Graph) (*Engine[V, A], error) {
	return NewEngine(g, e.p, e.opts)
}

// Rebuild replaces the engine's private state — graph, values,
// aggregates, dependency history, cumulative stats — with the state
// replay leaves in a fresh engine over base that has this engine's
// program and options, with metrics, flight recording and retention
// off. The published snapshot, the history ring and the metrics are
// left alone, so readers see no change and the next Publish continues
// the generation counter. A durable wrapper uses it to drop a staged
// batch whose journal record never became durable: replay restores the
// checkpoint and the journal into the fresh engine. On error the engine
// is unchanged.
func (e *Engine[V, A]) Rebuild(base *graph.Graph, replay func(*Engine[V, A]) error) error {
	opts := e.opts
	opts.Metrics, opts.Flight, opts.Retain = nil, nil, 0
	s, err := NewEngine(base, e.p, opts)
	if err != nil {
		return err
	}
	s.dir = e.dir
	if err := replay(s); err != nil {
		return err
	}
	e.g, e.vals, e.old, e.agg, e.hist, e.unsent = s.g, s.vals, s.old, s.agg, s.hist, s.unsent
	e.sc, e.level, e.ran, e.stats = s.sc, s.level, s.ran, s.stats
	e.refreshTrackingMetrics()
	return nil
}

// RetainDepth returns the number of published generations the engine
// keeps addressable via SnapshotAt (1 when retention is off).
func (e *Engine[V, A]) RetainDepth() int { return e.retain() }

// Graph returns the graph of the published snapshot (the live graph
// from the writer's perspective; for lock-free reads concurrent with
// ApplyBatch, prefer Snapshot, which pairs the graph with its values).
func (e *Engine[V, A]) Graph() *graph.Graph {
	if s := e.snap.Load(); s != nil {
		return s.Graph
	}
	return e.g
}

// Values returns the vertex values of the most recently published
// result snapshot (nil before the first Run). The slice is owned by
// that snapshot and never mutated afterwards, so it is safe to read
// from any goroutine — but it is shared by every reader of the same
// generation: treat it as read-only, or use CopyValues for an owned
// slice.
func (e *Engine[V, A]) Values() []V {
	if s := e.snap.Load(); s != nil {
		return s.Values
	}
	return nil
}

// CopyValues returns a freshly allocated copy of the published
// snapshot's values (nil before the first Run), for callers that want
// to retain or mutate results independently of the engine.
func (e *Engine[V, A]) CopyValues() []V { return e.snap.Load().CopyValues() }

// Level returns the number of completed BSP iterations backing Values.
func (e *Engine[V, A]) Level() int {
	if s := e.snap.Load(); s != nil {
		return s.Level
	}
	return 0
}

// TotalStats returns cumulative work statistics across all calls.
func (e *Engine[V, A]) TotalStats() Stats { return e.stats }

// HistoryBytes reports the dependency store's heap footprint (0 for
// modes that do not track dependencies).
func (e *Engine[V, A]) HistoryBytes() int64 {
	if e.hist == nil {
		return 0
	}
	return e.hist.HeapBytes()
}

func (e *Engine[V, A]) tracking() bool {
	return e.opts.Mode == ModeGraphBolt || e.opts.Mode == ModeGraphBoltRP
}

// Run executes the initial computation from scratch (also used by the
// restart modes after a mutation). Subsequent calls restart.
func (e *Engine[V, A]) Run() Stats {
	st := e.run()
	e.Publish()
	return st
}

// run is Run without the publish.
func (e *Engine[V, A]) run() Stats {
	start := time.Now()
	var st Stats
	e.resetState()
	if e.opts.Mode == ModeLigra {
		st = e.runLigra()
	} else {
		st = e.runDelta(1, nil, e.opts.MaxIterations)
	}
	e.ran = true
	st.Duration = time.Since(start)
	st.TrackedSnapshotBytes = e.HistoryBytes()
	e.stats.Add(st)
	e.met.observeRun(st)
	e.refreshTrackingMetrics()
	e.opts.Flight.Phase("run", start, time.Since(start))
	return st
}

// refreshTrackingMetrics publishes the dependency store's current size
// to the tracked-snapshot gauges.
func (e *Engine[V, A]) refreshTrackingMetrics() {
	if e.met.trackedSnapshots == nil {
		return
	}
	if e.hist == nil {
		e.met.observeTracking(0, 0)
		return
	}
	e.met.observeTracking(e.hist.Entries(), e.hist.HeapBytes())
}

// resetState reinitializes values, aggregates and history for the
// current graph.
func (e *Engine[V, A]) resetState() {
	n := e.g.NumVertices()
	e.vals = make([]V, n)
	e.old = make([]V, n)
	for v := 0; v < n; v++ {
		e.vals[v] = e.p.InitValue(VertexID(v))
	}
	e.agg = make([]A, n)
	for v := range e.agg {
		e.agg[v] = e.p.IdentityAgg()
	}
	if e.tracking() {
		e.resetHistory()
	} else {
		e.hist = nil
	}
	e.sc.size(n, e.pull == nil, e.delta != nil)
	e.level = 0
}

// resetHistory installs an empty dependency store sized for the current
// graph.
func (e *Engine[V, A]) resetHistory() {
	clone := e.p.CloneAgg
	if e.flat {
		clone = nil // assignment copies; see deps.New
	}
	e.hist = deps.New[A](e.g.NumVertices(), e.opts.Horizon,
		clone,
		e.p.AggBytes,
		e.p.IdentityAgg,
	)
}

// pointerFree reports whether a value of type t holds no pointers, so
// that assignment deep-copies it and CloneAgg (identity for value types
// by contract) can be skipped.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// grow extends engine state and scratch to n vertices (mutations can add
// vertices).
func (e *Engine[V, A]) grow(n int) {
	e.sc.size(n, e.pull == nil, e.delta != nil)
	for v := len(e.vals); v < n; v++ {
		e.vals = append(e.vals, e.p.InitValue(VertexID(v)))
		e.old = append(e.old, e.p.InitValue(VertexID(v)))
		e.agg = append(e.agg, e.p.IdentityAgg())
	}
	if e.hist != nil {
		e.hist.Grow(n)
	}
}

// valueAt reconstructs the value of v at the given level from the
// dependency store: level 0 is the initial value; otherwise ∮ of the
// stored aggregate (identity when the vertex has no history). Only valid
// in tracking modes.
func (e *Engine[V, A]) valueAt(v VertexID, level int) V {
	if level <= 0 {
		return e.p.InitValue(v)
	}
	a, ok := e.hist.Lookup(v, level)
	if !ok {
		a = e.p.IdentityAgg()
	}
	return e.p.Compute(v, a)
}

// runDelta executes delta-based BSP levels starting at fromLevel until
// the frontier empties or MaxIterations is reached. For fromLevel == 1,
// seed must be nil: every vertex contributes fully and every vertex
// computes. For fromLevel > 1 (hybrid continuation), seed holds the
// vertices whose value changed between levels fromLevel-2 and
// fromLevel-1, with e.old holding the earlier value.
func (e *Engine[V, A]) runDelta(fromLevel int, seed *bitset.Bitset, maxLevel int) Stats {
	var st Stats
	all := allVertices(e.g.NumVertices())
	edgeWork := parallel.NewCounter()
	vertWork := parallel.NewCounter()
	touched := e.sc.touched
	to := sink[A]{agg: e.agg, work: edgeWork}
	oldVal := func(u VertexID) V { return e.old[u] }

	front := seed
	for level := fromLevel; level <= maxLevel; level++ {
		first := level == 1
		if !first && (front == nil || front.Count() == 0) {
			break
		}
		touched.ClearAll()

		switch {
		case first:
			// Level 1: every vertex aggregates its whole in-neighbourhood.
			e.pullEdges(all, e.current(), to)
		case e.pull != nil:
			// Only out-neighbours of the frontier can see a new input
			// set; e.agg holds each one's aggregate over the old values.
			e.witnessEdges(graph.ApplyResult{}, e.g, front, oldVal, e.current(), to)
		default:
			e.pushEdges(front, to)
		}

		// Compute phase: level 1 computes every vertex (c_1 = ∮(д_1)
		// differs from c_0 in general); later levels only touched ones.
		next := e.sc.otherFront(front)
		if first {
			e.computeVertices(all, level, next, vertWork)
		} else {
			e.computeVertices(membersOf(touched), level, next, vertWork)
		}
		if e.tracking() && e.opts.DisableVerticalPruning {
			e.snapshotAll(level)
		}
		front = next
		e.level = level
		st.Iterations++
	}
	e.unsent = nil
	if e.opts.Mode == ModeNaive && e.pull != nil && front != nil && front.Count() > 0 {
		e.unsent = front.Clone()
	}

	st.EdgeComputations = edgeWork.Sum()
	st.VertexComputations = vertWork.Sum()
	return st
}

// snapshotAll stores every vertex's aggregate at the level (vertical
// pruning disabled: per-iteration allocations across all vertices, §4.1).
func (e *Engine[V, A]) snapshotAll(level int) {
	if level > e.hist.Horizon() {
		return
	}
	for v := range e.agg {
		e.hist.Append(VertexID(v), level, e.agg[v])
	}
}

// runLigra performs full synchronous recomputation: every level
// re-aggregates every vertex over all in-edges (no selective
// scheduling), stopping at MaxIterations or when no value changes. Its
// fused aggregate-and-compute loop deliberately shares no code with the
// kernels of edgemap.go: it is the from-scratch baseline Table 5 times
// and the equivalence tests cross-check the kernels against.
func (e *Engine[V, A]) runLigra() Stats {
	var st Stats
	n := e.g.NumVertices()
	edgeWork := parallel.NewCounter()
	prev := make([]V, n)
	for level := 1; level <= e.opts.MaxIterations; level++ {
		copy(prev, e.vals)
		anyChanged := parallel.NewCounter()
		parallel.ForWorker(n, 64, func(worker, startV, endV int) {
			var cnt int64
			for v := startV; v < endV; v++ {
				vid := VertexID(v)
				na := e.p.IdentityAgg()
				us, ws := e.g.InNeighbors(vid)
				for i, u := range us {
					e.p.Propagate(&na, prev[u], u, vid, ws[i], e.g.OutDegree(u))
				}
				cnt += int64(len(us))
				e.agg[v] = na
				nv := e.p.Compute(vid, na)
				if e.p.Changed(prev[v], nv) {
					anyChanged.Add(worker, 1)
				}
				e.vals[v] = nv
			}
			edgeWork.Add(worker, cnt)
		})
		st.Iterations++
		st.VertexComputations += int64(n)
		e.level = level
		if anyChanged.Sum() == 0 {
			break
		}
	}
	st.EdgeComputations = edgeWork.Sum()
	return st
}

// ValueAtLevel reconstructs the value a vertex held at the end of the
// given BSP iteration from the dependency store (tracking modes only;
// level 0 returns the initial value). Useful for inspecting the tracked
// trajectory and for tests.
func (e *Engine[V, A]) ValueAtLevel(v VertexID, level int) V {
	return e.valueAt(v, level)
}
