package partition

import "repro/internal/obs"

// shardMetrics holds the applier's metric handles; the zero value (nil
// handles) is the instrumentation-off state, as everywhere else.
type shardMetrics struct {
	shardCount    *obs.Gauge
	mergedGen     *obs.Gauge
	crossBatches  *obs.Counter
	singleBatches *obs.Counter
}

func newShardMetrics(r *obs.Registry) shardMetrics {
	if r == nil {
		return shardMetrics{}
	}
	return shardMetrics{
		shardCount: r.Gauge("graphbolt_shard_count",
			"Partition shards the server fans each batch out over."),
		mergedGen: r.Gauge("graphbolt_shard_merged_generation",
			"Generation of the latest merged multi-shard snapshot."),
		crossBatches: r.Counter("graphbolt_shard_cross_batches_total",
			"Applied batches whose edges spanned more than one shard."),
		singleBatches: r.Counter("graphbolt_shard_single_batches_total",
			"Applied batches owned entirely by one shard (or empty)."),
	}
}

// RegisterMetrics pre-creates the partition metric set in r so the
// exposition endpoint shows every series before the first sharded
// server is constructed. Idempotent.
func RegisterMetrics(r *obs.Registry) {
	newShardMetrics(r)
}
