// Package replica turns the single-process engine into a multi-process
// read-scaling system: a leader ships its write-ahead log over HTTP and
// any number of followers replay it into their own engines, each
// serving the same generation-g snapshots the leader published, at a
// bounded, observable lag.
//
// The design leans entirely on the engine's BSP semantics: every
// journal record is one synchronous batch step, so a follower that has
// applied records 1..s holds exactly the leader's generation s+1
// snapshot (the initial computation is generation 1, each batch
// increments it). Replication therefore needs no value shipping, no
// merkle trees, no anti-entropy — sequence numbers are the whole
// protocol, and the CRC32C frames the journal already writes are the
// whole wire format.
//
// Three pieces:
//
//   - Log: the leader-side in-memory frame store, fed by
//     durable.Options.OnRecord, serving GET /v1/wal?from=SEQ as a
//     chunked long-poll stream (see wire.go for the format).
//   - Follower: tails the stream and replays records in strict sequence
//     order into a local applier (an in-memory engine or a durable one,
//     which re-journals under the leader's sequence numbers). It has no
//     write path: its state is a replay prefix of the leader's journal.
//   - API: the HTTP/JSON query surface (/v1/snapshot, /v1/topk, ...)
//     served identically by leaders and followers, so a load balancer
//     can spread reads without caring which process is which.
package replica

import (
	"errors"

	"repro/internal/obs"
)

// ErrLogCompacted reports a resume position below the leader's
// replication log floor: the records were absorbed into a checkpoint
// before the log attached, so the follower cannot be caught up by
// streaming alone. Surfaced as HTTP 410 by the Log handler. A follower
// recovers on its own by fetching the leader's checkpoint from
// /v1/checkpoint, installing it through its applier and resuming the
// stream from its sequence; the error is terminal only when the leader
// serves no checkpoint to bridge the gap.
var ErrLogCompacted = errors.New("replica: replication log compacted before requested sequence")

// ErrStreamStalled reports a connection the stall watchdog killed: the
// stream carried neither records nor heartbeats for longer than the
// configured stall timeout. Always transient — the follower drops the
// connection and re-enters backoff-reconnect.
var ErrStreamStalled = errors.New("replica: replication stream stalled")

// ErrStreamCorrupt reports a malformed replication stream: bad hello
// magic, an unknown message tag, or a frame that failed CRC or decode.
// The follower treats it like a dropped connection — resume from the
// last applied sequence number.
var ErrStreamCorrupt = errors.New("replica: corrupt replication stream")

// metrics holds the follower's metric handles; the zero value (nil
// handles) is the instrumentation-off state, matching the other
// subsystems' nil-safe pattern.
type metrics struct {
	lagGenerations  *obs.Gauge
	lagSeconds      *obs.Gauge
	records         *obs.Counter
	resumes         *obs.Counter
	reseeds         *obs.Counter
	stalls          *obs.Counter
	checkpointFetch *obs.Histogram
}

func newMetrics(r *obs.Registry) metrics {
	if r == nil {
		return metrics{}
	}
	return metrics{
		lagGenerations: r.Gauge("graphbolt_replica_lag_generations",
			"Generations the follower trails the leader (0 when caught up)."),
		lagSeconds: r.Gauge("graphbolt_replica_lag_seconds",
			"Seconds since the follower was last caught up with the leader."),
		records: r.Counter("graphbolt_replica_records_streamed_total",
			"WAL records received and applied from the replication stream."),
		resumes: r.Counter("graphbolt_replica_resumes_total",
			"Stream reconnects after the initial connection (resume-by-seq events)."),
		reseeds: r.Counter("graphbolt_replica_reseeds_total",
			"Checkpoint re-seeds after the leader compacted past the resume position."),
		stalls: r.Counter("graphbolt_replica_stalls_total",
			"Connections dropped by the stream-stall watchdog (no records or heartbeats)."),
		checkpointFetch: r.Histogram("graphbolt_replica_checkpoint_fetch_seconds",
			"Checkpoint fetch-and-install duration during a re-seed.",
			obs.DefTimeBuckets),
	}
}

// RegisterMetrics pre-creates the replica metric set in r so the
// exposition endpoint shows every series (at zero) before a follower
// connects. Idempotent.
func RegisterMetrics(r *obs.Registry) {
	newMetrics(r)
}
