// Checkpoint export and import: the leader side opens its latest
// on-disk checkpoint for shipping to followers, and the follower side
// installs a shipped checkpoint as its new base state (re-seeding after
// the leader compacted the replication log past the follower's
// position). Both halves reuse the exact artifact Checkpoint writes —
// header framing from the wal package, core snapshot framing from the
// core package — so a checkpoint that re-seeds a follower is the same
// bytes that would recover the leader.

package durable

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/wal"
)

// ErrNoCheckpoint reports that no checkpoint exists on disk yet — the
// engine has never completed a Checkpoint. The replication layer maps
// it to 404 on the checkpoint endpoint.
var ErrNoCheckpoint = errors.New("durable: no checkpoint on disk")

// ErrCheckpointStale reports an InstallCheckpoint whose covered
// sequence number does not advance past the engine's current position.
// Installing it would move the follower backwards (re-applying batches
// it already acknowledged), so it is refused; the caller should resume
// streaming from its current sequence instead.
var ErrCheckpointStale = errors.New("durable: checkpoint does not advance past the current sequence")

// CheckpointFile is an open, header-verified checkpoint ready to
// stream. Read yields the complete framed file from offset zero —
// header included — so the bytes a follower receives are exactly the
// bytes InstallCheckpoint expects. The file handle pins the inode: even
// if a newer checkpoint is renamed over the path while streaming, the
// reader keeps seeing one consistent checkpoint.
type CheckpointFile struct {
	f    *os.File
	seq  uint64
	size int64
}

// Seq returns the sequence number of the last batch the checkpoint
// covers.
func (c *CheckpointFile) Seq() uint64 { return c.seq }

// Size returns the total framed size in bytes (header plus snapshot).
func (c *CheckpointFile) Size() int64 { return c.size }

// Read streams the framed checkpoint from the start.
func (c *CheckpointFile) Read(p []byte) (int, error) { return c.f.Read(p) }

// Close releases the underlying file.
func (c *CheckpointFile) Close() error { return c.f.Close() }

// openCheckpointFile opens and header-verifies dir's checkpoint,
// rewound to offset zero. Because checkpoints are written with an
// atomic rename, the opened handle is always one complete checkpoint,
// never a torn mix of two.
func openCheckpointFile(dir string) (*CheckpointFile, error) {
	f, err := os.Open(filepath.Join(dir, snapFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoCheckpoint
	}
	if err != nil {
		return nil, fmt.Errorf("durable: open checkpoint: %w", err)
	}
	seq, err := wal.ReadCheckpointHeader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: open checkpoint: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: open checkpoint: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: open checkpoint: %w", err)
	}
	return &CheckpointFile{f: f, seq: seq, size: st.Size()}, nil
}

// CheckpointDir exposes the checkpoint of a durable directory without
// holding the engine that owns it — the serving process mounts its
// checkpoint endpoint before (or without) keeping a handle to the
// typed engine, since the directory path is known first. Each
// OpenCheckpoint call re-opens the file, so it always serves the
// newest complete checkpoint.
type CheckpointDir string

// OpenCheckpoint opens the directory's latest checkpoint
// (ErrNoCheckpoint if none exists). Safe from any goroutine,
// concurrently with the writer checkpointing: the handle pins whichever
// complete checkpoint the atomic rename had published at open time.
func (dir CheckpointDir) OpenCheckpoint() (*CheckpointFile, error) {
	return openCheckpointFile(string(dir))
}

// CheckpointSeq reports the sequence covered by the directory's latest
// checkpoint, false if none exists or it is unreadable. Safe from any
// goroutine — the replication log's compaction responses call it from
// HTTP handlers to hint followers where to re-seed from.
func (dir CheckpointDir) CheckpointSeq() (uint64, bool) {
	cf, err := openCheckpointFile(string(dir))
	if err != nil {
		return 0, false
	}
	defer cf.Close()
	return cf.Seq(), true
}

// InstallCheckpoint re-seeds the engine from a checkpoint streamed from
// elsewhere — the follower half of checkpoint shipping. The stream must
// be a complete framed checkpoint as served by CheckpointDir. On
// success the engine's state is exactly the leader's at the returned
// sequence number, the checkpoint is durably on disk, and the local
// journal is truncated (its records are ≤ the new base and would be
// skipped at recovery anyway).
//
// Validation is strictly before commitment: the body is spooled to a
// temp file and fully CRC-verified (header and snapshot) before either
// the in-memory engine or the on-disk checkpoint is touched, so a torn
// or corrupt transfer leaves both exactly as they were — including the
// previous checkpoint, which stays valid for crash recovery. A
// checkpoint whose sequence does not exceed Seq() is refused with
// ErrCheckpointStale.
//
// Crash safety mirrors Checkpoint: a crash after the rename but before
// the journal truncation recovers from the new checkpoint and skips the
// now-covered journal records; a crash before the rename recovers from
// the old state and the re-seed simply runs again. Must be serialized
// with ApplyBatch like every write-side call.
func (d *Engine[V, A]) InstallCheckpoint(r io.Reader) (uint64, error) {
	if d.ailment != nil {
		return 0, fmt.Errorf("durable: journal degraded: %w", d.ailment)
	}
	tmpPath := filepath.Join(d.dir, snapFile+".reseed")
	seq, err := d.spoolCheckpoint(tmpPath, r)
	if err != nil {
		os.Remove(tmpPath)
		return 0, err
	}
	if err := os.Rename(tmpPath, filepath.Join(d.dir, snapFile)); err != nil {
		os.Remove(tmpPath)
		d.ailment = fmt.Errorf("durable: install checkpoint rename: %w", err)
		return 0, d.ailment
	}
	if err := syncDir(d.dir); err != nil {
		d.ailment = err
		return 0, err
	}
	d.seq, d.snapSeq = seq, seq
	d.since = 0
	if err := d.w.Reset(); err != nil {
		d.ailment = err
		return seq, err
	}
	return seq, nil
}

// spoolCheckpoint copies the stream to tmpPath, fsyncs it, and fully
// validates it — header seq strictly beyond the current position, core
// snapshot CRC-clean — loading the state into the engine as a side
// effect of the final validation step (core.ReadSnapshot verifies the
// whole frame before mutating anything).
func (d *Engine[V, A]) spoolCheckpoint(tmpPath string, r io.Reader) (uint64, error) {
	f, err := os.Create(tmpPath)
	if err != nil {
		return 0, fmt.Errorf("durable: install checkpoint: %w", err)
	}
	_, err = io.Copy(f, r)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("durable: install checkpoint: %w", err)
	}
	g, err := os.Open(tmpPath)
	if err != nil {
		return 0, fmt.Errorf("durable: install checkpoint: %w", err)
	}
	defer g.Close()
	seq, err := wal.ReadCheckpointHeader(g)
	if err != nil {
		return 0, fmt.Errorf("durable: install checkpoint: %w", err)
	}
	if seq <= d.seq {
		return 0, fmt.Errorf("%w: checkpoint seq %d, engine at %d", ErrCheckpointStale, seq, d.seq)
	}
	if err := d.eng.ReadSnapshot(g); err != nil {
		return 0, fmt.Errorf("durable: install checkpoint: %w", err)
	}
	return seq, nil
}
