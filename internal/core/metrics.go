package core

import "repro/internal/obs"

// engineMetrics holds the engine's metric handles. The zero value (all
// nil handles) is the instrumentation-off state: every method of every
// handle no-ops on nil, so call sites stay unconditional.
type engineMetrics struct {
	runs    *obs.Counter
	batches *obs.Counter

	iterations       *obs.Counter
	refineIterations *obs.Counter
	hybridIterations *obs.Counter

	initialEdges     *obs.Counter
	refineEdges      *obs.Counter
	hybridEdges      *obs.Counter
	edgeComputations *obs.Counter
	vertexComps      *obs.Counter

	hybridSwitches *obs.Counter

	trackedSnapshots *obs.Gauge
	trackedBytes     *obs.Gauge
	generation       *obs.Gauge
	retained         *obs.Gauge

	runDuration   *obs.Histogram
	batchDuration *obs.Histogram
}

// newEngineMetrics registers (or re-resolves) the engine metric set in
// r; a nil registry yields inert zero-value metrics.
func newEngineMetrics(r *obs.Registry) engineMetrics {
	if r == nil {
		return engineMetrics{}
	}
	return engineMetrics{
		runs: r.Counter("graphbolt_engine_runs_total",
			"Initial (or restart) computations executed."),
		batches: r.Counter("graphbolt_engine_batches_total",
			"Mutation batches applied successfully."),
		iterations: r.Counter("graphbolt_engine_iterations_total",
			"BSP iterations executed across all calls."),
		refineIterations: r.Counter("graphbolt_engine_refine_iterations_total",
			"Dependency-driven refinement iterations (paper section 3.3)."),
		hybridIterations: r.Counter("graphbolt_engine_hybrid_iterations_total",
			"Delta-BSP iterations past the pruning horizon (paper section 4.2)."),
		initialEdges: r.Counter("graphbolt_engine_initial_edge_computations_total",
			"Edge computations performed by initial runs."),
		refineEdges: r.Counter("graphbolt_engine_refine_edge_computations_total",
			"Edge computations performed by value refinement (paper section 3.3)."),
		hybridEdges: r.Counter("graphbolt_engine_hybrid_edge_computations_total",
			"Edge computations performed by hybrid execution past the horizon (paper section 4.2)."),
		edgeComputations: r.Counter("graphbolt_engine_edge_computations_total",
			"Edge computations across all phases and modes (Figure 6's unit)."),
		vertexComps: r.Counter("graphbolt_engine_vertex_computations_total",
			"Vertex Compute invocations across all calls."),
		hybridSwitches: r.Counter("graphbolt_engine_hybrid_switches_total",
			"Batches that crossed the horizon into hybrid execution."),
		trackedSnapshots: r.Gauge("graphbolt_engine_tracked_snapshots",
			"Aggregation values currently held by the dependency store (pruning effectiveness, paper section 3.2)."),
		trackedBytes: r.Gauge("graphbolt_engine_tracked_snapshot_bytes",
			"Heap bytes held by the dependency store (Table 9's metric)."),
		generation: r.Gauge("graphbolt_engine_snapshot_generation",
			"Generation of the most recently published result snapshot."),
		retained: r.Gauge("graphbolt_engine_retained_generations",
			"Published generations currently addressable via SnapshotAt."),
		runDuration: r.Histogram("graphbolt_engine_run_duration_seconds",
			"Initial-computation latency.", obs.DefTimeBuckets),
		batchDuration: r.Histogram("graphbolt_engine_batch_duration_seconds",
			"ApplyBatch latency.", obs.DefTimeBuckets),
	}
}

// RegisterMetrics pre-creates the full engine metric set in r so the
// exposition endpoint shows every series (at zero) before the first
// engine is constructed. Idempotent.
func RegisterMetrics(r *obs.Registry) {
	newEngineMetrics(r)
}

// observeRun records an initial (or restart) computation.
func (m *engineMetrics) observeRun(st Stats) {
	m.runs.Inc()
	m.iterations.Add(int64(st.Iterations))
	m.initialEdges.Add(st.EdgeComputations)
	m.edgeComputations.Add(st.EdgeComputations)
	m.vertexComps.Add(st.VertexComputations)
	m.runDuration.Observe(st.Duration.Seconds())
}

// observeBatch records a successfully applied mutation batch.
func (m *engineMetrics) observeBatch(st Stats) {
	m.batches.Inc()
	m.iterations.Add(int64(st.Iterations))
	m.refineIterations.Add(int64(st.RefineIterations))
	m.hybridIterations.Add(int64(st.HybridIterations))
	m.edgeComputations.Add(st.EdgeComputations)
	m.vertexComps.Add(st.VertexComputations)
	m.batchDuration.Observe(st.Duration.Seconds())
	if st.HybridIterations > 0 {
		m.hybridSwitches.Inc()
	}
}

// observeGeneration publishes the latest result-snapshot generation.
func (m *engineMetrics) observeGeneration(gen uint64) {
	m.generation.Set(float64(gen))
}

// observeRetained publishes how many generations the history ring holds.
func (m *engineMetrics) observeRetained(n int64) {
	m.retained.Set(float64(n))
}

// observeTracking refreshes the dependency-store gauges.
func (m *engineMetrics) observeTracking(snapshots, bytes int64) {
	m.trackedSnapshots.Set(float64(snapshots))
	m.trackedBytes.Set(float64(bytes))
}
