// Package durable makes a core.Engine crash-safe. Every mutation batch
// is journaled to a write-ahead log before its result is published,
// and the engine state is periodically checkpointed; after a crash,
// Open restores the latest checkpoint and replays the WAL suffix, so
// the recovered engine is batch-for-batch identical to one that never
// crashed.
//
// Write protocol (journal before publish): a batch's record is written
// and its fsync started; the engine stages the batch meanwhile, without
// publishing it; once the fsync returns the staged state is published,
// OnRecord fires and the caller is answered. No reader, ticket or
// follower sees a generation whose record is not durable. Only the
// engine's private state runs ahead of the disk, by at most one batch:
// if that fsync fails, the staged batch is never published, and Recover
// rebuilds the private state from the checkpoint and the repaired
// journal (core.Engine.Rebuild) — runs are bit-identical functions of
// their batch sequence, so the rebuilt state is exactly the one the
// surviving stream produces.
//
// Recovery protocol:
//
//  1. Open the WAL (wal.Open truncates any torn or corrupt tail and
//     yields the longest valid record prefix).
//  2. If a checkpoint exists, load it: a small CRC-protected header
//     carries the sequence number S of the last batch the checkpoint
//     covers, followed by the core engine snapshot (itself magic-,
//     version- and CRC-framed).
//  3. If no checkpoint exists, run the initial computation from the
//     base graph, exactly as the original process did before its first
//     batch.
//  4. Replay WAL records with sequence number > S in order. Records
//     with seq ≤ S are skipped — they are leftovers from a crash that
//     hit between writing a checkpoint and truncating the log, and
//     their effects are already inside the checkpoint.
//
// Checkpoints are written atomically (temp file, fsync, rename, fsync
// of the directory) and only then is the WAL truncated, so at every
// instant the disk holds either the old checkpoint plus a complete log
// suffix or the new checkpoint plus a (possibly redundant) log — never
// a state that loses an acknowledged batch.
package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/wal"
)

const (
	walFile  = "graph.wal"
	snapFile = "checkpoint.snap"
)

// The checkpoint file is framed by the wal package's checkpoint header
// (magic, covered sequence number, CRC32C — see wal.CheckpointMagic);
// the core snapshot that follows carries its own framing. Sharing the
// codec with wal is what lets the replication layer ship the file to
// followers verbatim and verify it with the same reader.

// Options configures a durable engine.
type Options struct {
	// CheckpointEvery is the number of applied batches between automatic
	// checkpoints. 0 disables automatic checkpoints (the WAL then grows
	// until Checkpoint is called explicitly).
	CheckpointEvery int
	// WAL configures the journal's sync policy.
	WAL wal.Options
	// Metrics, when non-nil, receives checkpoint/recovery instrumentation
	// and is propagated to the journal unless WAL.Metrics is already set.
	// Nil means instrumentation is off.
	Metrics *obs.Registry
	// Flight, when non-nil, receives journaled/journal-failed lifecycle
	// events (with append latency, stamped with the trace the serve loop
	// marked active) and the "recovery" and "checkpoint" phase events,
	// and is propagated to the WAL unless WAL.Flight is already set, so
	// fsync events land in the same ring.
	Flight *flight.Recorder
	// OnRecord, when non-nil, observes every record that is both
	// journaled and published: once per record replayed from the local
	// WAL during Open, then once per ApplyBatch/ApplyRecord. Records that
	// were rolled back (Unappend after a failed apply, Repair after a
	// failed fsync) or skipped at recovery because the checkpoint
	// already covers them are never reported — the sequence a
	// subscriber sees is exactly the batches inside the engine's
	// published state beyond the checkpoint. The replication log
	// (internal/replica) subscribes here to ship the journal to
	// followers. Called synchronously on the write path; keep it fast.
	OnRecord func(rec wal.Record)
}

// ErrOutOfOrder reports an ApplyRecord whose sequence number is not
// exactly one past the last applied batch — a gap would silently lose a
// batch and a smaller seq would double-apply one, so both are refused.
var ErrOutOfOrder = errors.New("durable: record out of order")

// RecoveryInfo describes how Open reconstructed the engine state.
type RecoveryInfo struct {
	// FromSnapshot reports that a checkpoint was loaded (vs. an initial
	// run from the base graph).
	FromSnapshot bool
	// SnapshotSeq is the sequence number the loaded checkpoint covers.
	SnapshotSeq uint64
	// Replayed is the number of WAL records applied on top.
	Replayed int
	// Skipped is the number of WAL records ignored because the
	// checkpoint already covered them (crash between checkpoint and log
	// truncation).
	Skipped int
	// WAL reports what the log scan found (torn-tail truncation etc.).
	WAL wal.RecoveryInfo
}

// Engine wraps a core.Engine with journaling and checkpointing. Like
// the core engine it is single-writer, multi-reader: ApplyBatch,
// Checkpoint, Seq and Close must be serialized (the serve layer's apply
// loop does this), while Values, Snapshot and Graph read the atomically
// published result snapshot and are safe from any goroutine.
type Engine[V, A any] struct {
	eng  *core.Engine[V, A]
	base *graph.Graph // the graph eng was built over: Recover's rebuild starts here
	w    *wal.WAL
	dir  string
	opts Options

	seq     uint64 // sequence number of the last applied batch
	snapSeq uint64 // sequence number covered by the on-disk checkpoint
	since   int    // batches applied since that checkpoint
	info    RecoveryInfo
	met     durableMetrics

	// ailment is the storage fault keeping the engine from accepting
	// writes (journal damage, failed checkpoint). While set, ApplyBatch
	// fails fast; Recover repairs and clears it. The published state
	// stays valid throughout — reads keep working.
	ailment error
	// stale reports that the engine's private state holds a staged batch
	// whose fsync failed; Recover rebuilds it before clearing the ailment.
	stale  bool
	closed bool
}

// Open wraps eng with durability backed by dir, recovering any state a
// previous process left there. eng must be freshly constructed — same
// program, options and base graph as the original run — and must not
// have Run or ApplyBatch called on it yet; Open itself performs the
// initial computation (or restores it from a checkpoint) and replays
// the journal.
//
// A corrupt or version-incompatible checkpoint is a hard error
// (errors.Is core.ErrSnapshotCorrupt / core.ErrSnapshotVersion): the
// WAL was truncated when that checkpoint was written, so the lost
// prefix cannot be reconstructed from dir alone.
func Open[V, A any](eng *core.Engine[V, A], dir string, opts Options) (*Engine[V, A], error) {
	if eng == nil {
		return nil, fmt.Errorf("durable: nil engine")
	}
	if eng.Values() != nil {
		return nil, fmt.Errorf("durable: engine has already run; Open needs a fresh engine")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	if opts.WAL.Metrics == nil {
		opts.WAL.Metrics = opts.Metrics
	}
	if opts.WAL.Flight == nil {
		opts.WAL.Flight = opts.Flight
	}
	w, err := wal.Open(filepath.Join(dir, walFile), opts.WAL)
	if err != nil {
		return nil, err
	}
	d := &Engine[V, A]{eng: eng, base: eng.Graph(), w: w, dir: dir, opts: opts, met: newDurableMetrics(opts.Metrics)}
	start := time.Now()
	if err := d.recover(); err != nil {
		w.Close()
		return nil, err
	}
	opts.Flight.Phase("recovery", start, time.Since(start))
	d.met.recoveries.Inc()
	d.met.replayedRecords.Add(int64(d.info.Replayed))
	d.met.skippedRecords.Add(int64(d.info.Skipped))
	return d, nil
}

func (d *Engine[V, A]) recover() error {
	recs := d.w.Recovered()
	info, seq, err := d.replay(d.eng, recs)
	if err != nil {
		return err
	}
	info.WAL = d.w.Recovery()
	d.info = info
	d.seq, d.snapSeq, d.since = seq, info.SnapshotSeq, info.Replayed
	if d.opts.OnRecord != nil {
		for _, rec := range recs {
			if rec.Seq > d.snapSeq {
				d.opts.OnRecord(rec)
			}
		}
	}
	return nil
}

// replay brings eng, fresh, to the state dir and recs describe: the
// checkpoint if one exists, else the initial run the original process
// made before its first batch, then every record the checkpoint does
// not cover. It returns what it did and the last sequence number
// applied.
func (d *Engine[V, A]) replay(eng *core.Engine[V, A], recs []wal.Record) (info RecoveryInfo, seq uint64, err error) {
	snapSeq, found, err := d.loadSnapshot(eng)
	if err != nil {
		return info, 0, err
	}
	if found {
		info.FromSnapshot, info.SnapshotSeq, seq = true, snapSeq, snapSeq
	} else {
		eng.Run()
	}
	for _, rec := range recs {
		if rec.Seq <= snapSeq {
			info.Skipped++
			continue
		}
		if _, err := eng.ApplyBatch(rec.Batch); err != nil {
			return info, 0, fmt.Errorf("durable: replay seq %d: %w", rec.Seq, err)
		}
		seq = rec.Seq
		info.Replayed++
	}
	return info, seq, nil
}

// rebuild replaces the engine's private state with the one the
// checkpoint and the journal on disk describe, dropping a staged batch
// whose record never became durable; the published state is untouched.
func (d *Engine[V, A]) rebuild() error {
	recs, err := d.w.Records()
	if err != nil {
		return fmt.Errorf("durable: rebuild: %w", err)
	}
	return d.eng.Rebuild(d.base, func(eng *core.Engine[V, A]) error {
		_, seq, err := d.replay(eng, recs)
		if err == nil && seq != d.seq {
			err = fmt.Errorf("durable: rebuild reached seq %d, engine is at %d", seq, d.seq)
		}
		return err
	})
}

// loadSnapshot restores the checkpoint into eng if one exists.
func (d *Engine[V, A]) loadSnapshot(eng *core.Engine[V, A]) (seq uint64, found bool, err error) {
	f, err := os.Open(filepath.Join(d.dir, snapFile))
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("durable: %w", err)
	}
	defer f.Close()
	snapSeq, err := wal.ReadCheckpointHeader(f)
	if err != nil {
		return 0, false, fmt.Errorf("durable: checkpoint header: %w: %v", core.ErrSnapshotCorrupt, err)
	}
	if err := eng.ReadSnapshot(f); err != nil {
		return 0, false, err
	}
	return snapSeq, true, nil
}

// Recovery reports how Open reconstructed the state.
func (d *Engine[V, A]) Recovery() RecoveryInfo { return d.info }

// Seq returns the sequence number of the last applied batch (0 before
// any batch).
func (d *Engine[V, A]) Seq() uint64 { return d.seq }

// Core exposes the wrapped engine for reads (Values, Graph, Level,
// TotalStats). Mutating it directly bypasses the journal.
func (d *Engine[V, A]) Core() *core.Engine[V, A] { return d.eng }

// Values returns the vertex values of the engine's published result
// snapshot (immutable; shared by every reader of that generation).
func (d *Engine[V, A]) Values() []V { return d.eng.Values() }

// Snapshot returns the engine's most recently published result
// snapshot — the lock-free read path; safe from any goroutine while
// batches are applied.
func (d *Engine[V, A]) Snapshot() *core.ResultSnapshot[V] { return d.eng.Snapshot() }

// Graph returns the current graph snapshot.
func (d *Engine[V, A]) Graph() *graph.Graph { return d.eng.Graph() }

// ApplyBatch journals b, applies it to the wrapped engine, publishes
// the result once the record is durable (per the WAL sync policy), and
// checkpoints if the configured interval has elapsed. No reader sees
// the batch's generation before its record is durable.
// If the in-memory apply fails — malformed batch, panicking program —
// the journal entry is rolled back so recovery never replays a batch
// the engine could not process, and the engine itself must be discarded
// and reopened (Open rebuilds it from the checkpoint and journal). If
// the record's fsync fails, the batch is not published and the fault
// surfaces as an ailment; Recover repairs the journal and rebuilds the
// engine's private state without the batch.
// While an ailment is set (see Ailment), ApplyBatch fails fast without
// touching the journal or the engine; one special case is a checkpoint
// that fails after its batch applied cleanly — the batch is journaled
// and published, so ApplyBatch reports success and the checkpoint fault
// surfaces through Ailment instead (a retry would otherwise apply the
// batch twice).
func (d *Engine[V, A]) ApplyBatch(b graph.Batch) (core.Stats, error) {
	return d.applySeq(d.seq+1, b)
}

// ApplyRecord replays a record produced elsewhere — the follower half
// of WAL shipping (internal/replica): the leader's journal record is
// journaled locally and applied under the leader's sequence number, so
// the follower's log is byte-compatible with the leader's and its own
// recovery resumes at exactly the right position. The record's sequence
// number must be exactly Seq()+1: a gap means records were lost in
// transit (refuse, reconnect, and re-fetch), a stale seq means the
// record is already applied (refuse so the caller's dedup logic stays
// honest). Both refusals wrap ErrOutOfOrder and leave the engine
// untouched.
func (d *Engine[V, A]) ApplyRecord(rec wal.Record) error {
	if rec.Seq != d.seq+1 {
		return fmt.Errorf("%w: record seq %d, next expected %d", ErrOutOfOrder, rec.Seq, d.seq+1)
	}
	_, err := d.applySeq(rec.Seq, rec.Batch)
	return err
}

// applySeq is the shared journal-before-publish path behind ApplyBatch
// (seq assigned locally) and ApplyRecord (seq assigned by a leader). The
// engine stages the batch while the record's fsync runs; the journal
// phase charged to the flight recorder is the frame write plus the time
// spent waiting on the fsync after the stage step, so it stays disjoint
// from the apply.
func (d *Engine[V, A]) applySeq(seq uint64, b graph.Batch) (core.Stats, error) {
	if d.ailment != nil {
		return core.Stats{}, fmt.Errorf("durable: journal degraded: %w", d.ailment)
	}
	if err := b.Validate(); err != nil {
		return core.Stats{}, fmt.Errorf("durable: %w", err)
	}
	jStart := time.Now()
	wait, err := d.w.AppendAsync(seq, b)
	if err != nil {
		d.opts.Flight.Journal(seq, time.Since(jStart), true)
		d.ailment = err
		return core.Stats{}, err
	}
	journal := time.Since(jStart)
	st, err := d.eng.Stage(b)
	wStart := time.Now()
	werr := wait()
	d.opts.Flight.Journal(seq, journal+time.Since(wStart), werr != nil)
	if werr != nil {
		// The engine holds a batch the journal does not: it must never
		// publish, and Recover rebuilds it from what is on disk.
		d.ailment, d.stale = werr, true
		return core.Stats{}, errors.Join(err, werr)
	}
	if err != nil {
		if uerr := d.w.Unappend(); uerr != nil {
			// Journal now holds a record the engine rejected; writes stay
			// off until Recover truncates it.
			d.ailment = uerr
			return core.Stats{}, errors.Join(err, uerr)
		}
		return core.Stats{}, err
	}
	d.eng.Publish()
	d.seq = seq
	d.since++
	if d.opts.OnRecord != nil {
		d.opts.OnRecord(wal.Record{Seq: seq, Batch: b})
	}
	if d.opts.CheckpointEvery > 0 && d.since >= d.opts.CheckpointEvery {
		// A checkpoint failure here surfaces through Ailment, not the
		// return value: the batch is journaled and published, and an
		// error would make the caller retry — applying it twice.
		_ = d.Checkpoint()
	}
	return st, nil
}

// Ailment returns the storage fault currently blocking writes, nil when
// the engine is fully operational. Reads (Values, Snapshot, Graph) are
// unaffected by an ailment.
func (d *Engine[V, A]) Ailment() error { return d.ailment }

// Recover attempts to clear the current ailment: it repairs the journal
// (truncating any inconsistent tail back to the last acknowledged
// record), rebuilds the engine's private state from the checkpoint and
// the journal if a failed fsync left a staged batch in it, and retries
// an overdue checkpoint. On success the ailment is cleared and
// ApplyBatch accepts writes again; on failure the ailment reflects the
// latest error and Recover can be retried. Must be serialized with
// ApplyBatch like every other write-side call.
func (d *Engine[V, A]) Recover() error {
	if d.ailment == nil {
		return nil
	}
	if err := d.w.Repair(); err != nil {
		d.ailment = err
		return err
	}
	if d.stale {
		if err := d.rebuild(); err != nil {
			d.ailment = err
			return err
		}
		d.stale = false
	}
	d.ailment = nil
	if d.opts.CheckpointEvery > 0 && d.since >= d.opts.CheckpointEvery {
		if err := d.Checkpoint(); err != nil {
			return err // Checkpoint re-set the ailment
		}
	}
	return nil
}

// Checkpoint writes the engine state to disk atomically and truncates
// the journal. On return, recovery no longer needs any WAL record ≤ the
// current sequence number.
func (d *Engine[V, A]) Checkpoint() error {
	if d.stale {
		// The private state holds a batch the journal does not.
		return fmt.Errorf("durable: checkpoint: journal degraded: %w", d.ailment)
	}
	start := time.Now()
	if err := d.writeCheckpoint(); err != nil {
		d.ailment = err
		return err
	}
	// The checkpoint is durable; the log records it covers are now
	// redundant. A crash before this Reset is safe: replay skips
	// records with seq ≤ the checkpoint's sequence number.
	d.snapSeq = d.seq
	d.since = 0
	if err := d.w.Reset(); err != nil {
		d.ailment = err
		return err
	}
	d.ailment = nil
	took := time.Since(start)
	d.met.checkpointDuration.Observe(took.Seconds())
	d.met.checkpoints.Inc()
	d.opts.Flight.Phase("checkpoint", start, took)
	return nil
}

// writeCheckpoint performs the atomic snapshot write (temp file, fsync,
// rename, directory fsync) without touching the WAL — split out so
// tests can exercise a crash between the two halves of Checkpoint.
func (d *Engine[V, A]) writeCheckpoint() error {
	tmpPath := filepath.Join(d.dir, snapFile+".tmp")
	f, err := os.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("durable: checkpoint: %w", err)
	}
	hdr := wal.EncodeCheckpointHeader(d.seq)
	err = func() error {
		if _, err := f.Write(hdr[:]); err != nil {
			return err
		}
		if err := d.eng.WriteSnapshot(f); err != nil {
			return err
		}
		return f.Sync()
	}()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("durable: checkpoint: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(d.dir, snapFile)); err != nil {
		return fmt.Errorf("durable: checkpoint rename: %w", err)
	}
	return syncDir(d.dir)
}

// syncDir flushes directory metadata so a rename survives power loss.
func syncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: sync dir: %w", err)
	}
	defer df.Close()
	if err := df.Sync(); err != nil {
		return fmt.Errorf("durable: sync dir: %w", err)
	}
	return nil
}

// Close syncs and closes the journal. It does not checkpoint; call
// Checkpoint first to make the next Open cheap. Close is idempotent:
// a second call is a no-op returning nil, so shutdown paths can close
// defensively without tracking who closed first.
func (d *Engine[V, A]) Close() error {
	if d.closed {
		return nil
	}
	d.closed = true
	return d.w.Close()
}
