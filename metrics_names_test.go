package graphbolt_test

import (
	"slices"
	"sort"
	"testing"

	graphbolt "repro"
	"repro/internal/parallel"
)

// Golden list of every metric name graphbolt.RegisterMetrics creates —
// what the CLI exposes on /metrics before any work runs — per kind. Renaming or dropping a series is a
// breaking change for dashboards and alert rules scraping the
// exposition endpoint; adding one should be a deliberate edit here.
var (
	goldenCounters = []string{
		"graphbolt_checkpoints_total",
		"graphbolt_engine_batches_total",
		"graphbolt_engine_edge_computations_total",
		"graphbolt_engine_hybrid_edge_computations_total",
		"graphbolt_engine_hybrid_iterations_total",
		"graphbolt_engine_hybrid_switches_total",
		"graphbolt_engine_initial_edge_computations_total",
		"graphbolt_engine_iterations_total",
		"graphbolt_engine_refine_edge_computations_total",
		"graphbolt_engine_refine_iterations_total",
		"graphbolt_engine_runs_total",
		"graphbolt_engine_vertex_computations_total",
		"graphbolt_flight_dropped_total",
		"graphbolt_flight_dumps_total",
		"graphbolt_flight_events_total",
		"graphbolt_health_transitions_total",
		"graphbolt_parallel_chunk_claims_total",
		"graphbolt_parallel_inline_loops_total",
		"graphbolt_parallel_loops_total",
		"graphbolt_parallel_worker_launches_total",
		"graphbolt_qcache_evictions_total",
		"graphbolt_qcache_hits_total",
		"graphbolt_qcache_misses_total",
		"graphbolt_recoveries_total",
		"graphbolt_recovery_replayed_records_total",
		"graphbolt_recovery_skipped_records_total",
		"graphbolt_replica_records_streamed_total",
		"graphbolt_replica_reseeds_total",
		"graphbolt_replica_resumes_total",
		"graphbolt_replica_stalls_total",
		"graphbolt_serve_applied_batches_total",
		"graphbolt_serve_apply_errors_total",
		"graphbolt_serve_coalesced_batches_total",
		"graphbolt_serve_quarantined_batches_total",
		"graphbolt_serve_queries_total",
		"graphbolt_serve_recoveries_total",
		"graphbolt_serve_recovery_attempts_total",
		"graphbolt_serve_submitted_batches_total",
		"graphbolt_shard_cross_batches_total",
		"graphbolt_shard_single_batches_total",
		"graphbolt_wal_append_bytes_total",
		"graphbolt_wal_appends_total",
		"graphbolt_wal_recovered_records_total",
		"graphbolt_wal_truncated_bytes_total",
	}
	goldenGauges = []string{
		"graphbolt_engine_retained_generations",
		"graphbolt_engine_snapshot_generation",
		"graphbolt_engine_tracked_snapshot_bytes",
		"graphbolt_engine_tracked_snapshots",
		"graphbolt_health_state",
		"graphbolt_qcache_bytes",
		"graphbolt_qcache_entries",
		"graphbolt_replica_lag_generations",
		"graphbolt_replica_lag_seconds",
		"graphbolt_serve_queue_depth",
		"graphbolt_shard_count",
		"graphbolt_shard_merged_generation",
		"graphbolt_wal_size_bytes",
	}
	goldenHistograms = []string{
		"graphbolt_checkpoint_seconds",
		"graphbolt_engine_batch_duration_seconds",
		"graphbolt_engine_run_duration_seconds",
		"graphbolt_parallel_worker_utilization",
		"graphbolt_replica_checkpoint_fetch_seconds",
		"graphbolt_serve_queue_wait_seconds",
		"graphbolt_serve_read_staleness_seconds",
		"graphbolt_serve_recovery_backoff_seconds",
		"graphbolt_wal_fsync_seconds",
	}
)

// TestRegisteredMetricNamesGolden runs graphbolt.RegisterMetrics — the
// pre-registration the CLI performs — on one fresh registry and diffs
// the resulting names against the golden lists.
func TestRegisteredMetricNamesGolden(t *testing.T) {
	reg := graphbolt.NewMetricsRegistry()
	graphbolt.RegisterMetrics(reg)
	defer parallel.SetMetrics(nil)

	snap := reg.Snapshot()
	check := func(kind string, got map[string]bool, want []string) {
		t.Helper()
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		if !slices.Equal(names, want) {
			t.Errorf("%s names changed:\n got  %q\n want %q\n(update the golden list if this rename/addition is intentional)",
				kind, names, want)
		}
	}
	counters := make(map[string]bool, len(snap.Counters))
	for name := range snap.Counters {
		counters[name] = true
	}
	gauges := make(map[string]bool, len(snap.Gauges))
	for name := range snap.Gauges {
		gauges[name] = true
	}
	histograms := make(map[string]bool, len(snap.Histograms))
	for name := range snap.Histograms {
		histograms[name] = true
	}
	check("counter", counters, goldenCounters)
	check("gauge", gauges, goldenGauges)
	check("histogram", histograms, goldenHistograms)

	// Registration must be idempotent: a second pass may not duplicate
	// or disturb the set.
	graphbolt.RegisterMetrics(reg)
	if n := len(reg.Snapshot().Counters); n != len(goldenCounters) {
		t.Errorf("%d counters after re-registration, want %d", n, len(goldenCounters))
	}
}
