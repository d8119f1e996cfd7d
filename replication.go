package graphbolt

import (
	"net/http"

	"repro/internal/durable"
	"repro/internal/replica"
)

// Replication: WAL shipping over HTTP. A leader publishes its journal
// through a ReplicationLog; any number of read-only followers tail it,
// replay the records into their own engines, and serve the same
// generation-g snapshots at a bounded, observable lag. See the
// "Replication" section in README.md and the BSP-lag note in DESIGN.md.
//
// Leader wiring:
//
//	rlog := graphbolt.NewReplicationLog(graphbolt.ReplicationLogOptions{
//		CheckpointSeq: graphbolt.CheckpointDir(dir).CheckpointSeq,
//	})
//	d, _ := graphbolt.OpenDurable(eng, dir, graphbolt.DurableOptions{OnRecord: rlog.Append})
//	rlog.SetFloor(d.Recovery().SnapshotSeq)
//	srv := graphbolt.NewDurableServer(d, graphbolt.ServerOptions{})
//	mux.Handle("GET /v1/wal", rlog.Handler())
//	mux.Handle("GET /v1/checkpoint", graphbolt.CheckpointHandler(graphbolt.CheckpointDir(dir)))
//	mux.Handle("/v1/", graphbolt.QueryHandler(srv))
//
// Coalescing keeps leader/follower parity: one apply is one journal
// record and one generation, on the leader and on every follower that
// replays it, however many submitted batches the apply merged. The CLI
// turns coalescing off on its durable path for another reason: it
// resumes an interrupted stream at position d.Seq(), which needs one
// journal record per stream batch.
//
// Follower wiring (also available as `graphbolt -follow <leader-url>`):
//
//	f, _ := graphbolt.NewDurableFollower(d, "http://leader:8080", graphbolt.FollowerOptions{})
//	f.Start(ctx)
//	mux.Handle("/v1/", graphbolt.FollowerQueryHandler(f))

// ReplicationLog is the leader-side record store and stream server.
type ReplicationLog = replica.Log

// ReplicationLogOptions configures a ReplicationLog.
type ReplicationLogOptions = replica.LogOptions

// NewReplicationLog builds an empty replication log. Feed it with
// DurableOptions.OnRecord (which also backfills the records replayed
// from the local WAL at open) and mount Handler on the leader's mux.
func NewReplicationLog(opts ReplicationLogOptions) *ReplicationLog {
	return replica.NewLog(opts)
}

// Follower tails a leader's replication stream into a local engine and
// serves the same read API. It has no write path: its state is a replay
// prefix of the leader's journal.
type Follower[V, A any] = replica.Follower[V, A]

// FollowerOptions configures a Follower.
type FollowerOptions = replica.FollowerOptions

// RecordApplier is the follower's replay sink: a DurableEngine, or, when
// NewFollower gets nil, an in-memory adapter over the engine.
type RecordApplier = replica.RecordApplier

// NewFollower builds an in-memory follower over eng. ap may be nil (a
// fresh in-memory applier is used). The follower starts from the
// applier's sequence position and resumes there across reconnects.
func NewFollower[V, A any](eng *Engine[V, A], ap RecordApplier, leaderURL string, opts FollowerOptions) (*Follower[V, A], error) {
	return replica.NewFollower(eng, ap, leaderURL, opts)
}

// NewDurableFollower builds a follower that re-journals every streamed
// record into d before applying it, so a restart resumes from disk at
// the exact sequence number it last acked.
func NewDurableFollower[V, A any](d *DurableEngine[V, A], leaderURL string, opts FollowerOptions) (*Follower[V, A], error) {
	return replica.NewDurableFollower(d, leaderURL, opts)
}

// Checkpoint shipping: the re-seed path that lets a follower survive
// leader compaction. When a follower's resume position falls below the
// replication log's floor (HTTP 410, ErrReplicationLogCompacted), it
// fetches the leader's newest on-disk checkpoint from /v1/checkpoint,
// installs it through the same validated recovery path OpenDurable
// uses, and resumes the WAL stream from the checkpoint's sequence.
//
// Leader wiring (alongside the /v1/wal mount above):
//
//	rlog := graphbolt.NewReplicationLog(graphbolt.ReplicationLogOptions{
//		CheckpointSeq: graphbolt.CheckpointDir(dir).CheckpointSeq, // 410 bodies advertise the checkpoint
//	})
//	mux.Handle("GET /v1/checkpoint", graphbolt.CheckpointHandler(graphbolt.CheckpointDir(dir)))

// CheckpointSource serves the newest on-disk checkpoint; CheckpointDir
// adapts a durable directory as one.
type CheckpointSource = replica.CheckpointSource

// CheckpointDir adapts a durable directory (no open engine needed) as
// a CheckpointSource — e.g. to serve checkpoints from a leader process
// that owns the directory.
type CheckpointDir = durable.CheckpointDir

// CheckpointHandler serves GET /v1/checkpoint from src: the newest
// checkpoint file, whose CRC-protected header carries the sequence it
// covers, 404 until one exists.
func CheckpointHandler(src CheckpointSource) http.Handler {
	return replica.CheckpointHandler(src)
}

var (
	// ErrReplicationLogCompacted reports a follower resume position the
	// leader's replication log no longer covers (HTTP 410 on the stream).
	ErrReplicationLogCompacted = replica.ErrLogCompacted
	// ErrOutOfOrder reports a replayed record whose sequence number is
	// not exactly one past the engine's last applied batch.
	ErrOutOfOrder = durable.ErrOutOfOrder
	// ErrNoCheckpoint reports a checkpoint request against a leader that
	// has not written one yet (HTTP 404 on /v1/checkpoint).
	ErrNoCheckpoint = durable.ErrNoCheckpoint
	// ErrCheckpointStale reports a shipped checkpoint whose sequence does
	// not advance the installer — installing it would rewind state.
	ErrCheckpointStale = durable.ErrCheckpointStale
	// ErrStreamStalled reports a replication connection dropped by the
	// follower's stall watchdog after StallTimeout of silence.
	ErrStreamStalled = replica.ErrStreamStalled
)
