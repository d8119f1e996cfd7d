package serve

import (
	"time"

	"repro/internal/obs"
)

// loopMetrics holds the apply loop's metric handles. The zero value
// (nil handles) is the instrumentation-off state: every handle method
// no-ops on nil, so call sites stay unconditional.
type loopMetrics struct {
	depth            *obs.Gauge
	submitted        *obs.Counter
	applied          *obs.Counter
	coalesced        *obs.Counter
	applyErrors      *obs.Counter
	queueWait        *obs.Histogram
	quarantined      *obs.Counter
	recoveryAttempts *obs.Counter
	recoveries       *obs.Counter
	recoveryBackoff  *obs.Histogram
}

// newLoopMetrics registers (or re-resolves) the ingest metric set in r;
// a nil registry yields inert zero-value metrics.
func newLoopMetrics(r *obs.Registry) loopMetrics {
	if r == nil {
		return loopMetrics{}
	}
	return loopMetrics{
		depth: r.Gauge("graphbolt_serve_queue_depth",
			"Mutation batches currently queued for the apply loop."),
		submitted: r.Counter("graphbolt_serve_submitted_batches_total",
			"Mutation batches accepted by Submit."),
		applied: r.Counter("graphbolt_serve_applied_batches_total",
			"Apply calls completed (coalesced batches count once)."),
		coalesced: r.Counter("graphbolt_serve_coalesced_batches_total",
			"Submitted batches merged into an earlier apply call."),
		applyErrors: r.Counter("graphbolt_serve_apply_errors_total",
			"Apply calls that failed (terminal for the loop)."),
		queueWait: r.Histogram("graphbolt_serve_queue_wait_seconds",
			"Time batches spent queued before their apply call started.", obs.DefTimeBuckets),
		quarantined: r.Counter("graphbolt_serve_quarantined_batches_total",
			"Poison batches rejected at dequeue and quarantined."),
		recoveryAttempts: r.Counter("graphbolt_serve_recovery_attempts_total",
			"Recover calls made while in degraded mode."),
		recoveries: r.Counter("graphbolt_serve_recoveries_total",
			"Degraded episodes that ended in successful recovery."),
		recoveryBackoff: r.Histogram("graphbolt_serve_recovery_backoff_seconds",
			"Backoff delays slept between recovery attempts.", obs.DefTimeBuckets),
	}
}

// ReadMetrics instruments the query side of a server: how many reads
// were served and how stale the snapshot they observed was.
type ReadMetrics struct {
	queries   *obs.Counter
	staleness *obs.Histogram
}

// NewReadMetrics registers the read-path metric set in r; a nil
// registry yields inert metrics.
func NewReadMetrics(r *obs.Registry) ReadMetrics {
	if r == nil {
		return ReadMetrics{}
	}
	return ReadMetrics{
		queries: r.Counter("graphbolt_serve_queries_total",
			"Snapshot reads served."),
		staleness: r.Histogram("graphbolt_serve_read_staleness_seconds",
			"Age of the published snapshot at read time.", obs.DefTimeBuckets),
	}
}

// Observe records one read against a snapshot published at the given
// time.
func (m ReadMetrics) Observe(publishedAt time.Time) {
	m.queries.Inc()
	if m.staleness != nil && !publishedAt.IsZero() {
		m.staleness.Observe(time.Since(publishedAt).Seconds())
	}
}

// RegisterMetrics pre-creates the full serve metric set in r so the
// exposition endpoint shows every series (at zero) before the first
// loop or server is constructed. Idempotent.
func RegisterMetrics(r *obs.Registry) {
	newLoopMetrics(r)
	NewReadMetrics(r)
}
