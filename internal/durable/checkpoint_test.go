package durable

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wal"
)

// TestOpenCheckpointShipsRecoverableState is the checkpoint-shipping
// round trip: the bytes CheckpointDir.OpenCheckpoint streams from a
// leader's directory, fed to InstallCheckpoint on a fresh follower,
// must leave the follower at the leader's exact sequence, values and
// snapshot generation — and the installed checkpoint must survive the
// follower's own crash recovery.
func TestOpenCheckpointShipsRecoverableState(t *testing.T) {
	base, batches := testStream(t)

	leaderDir := t.TempDir()
	leader, err := Open(prEngine(t, base), leaderDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	src := CheckpointDir(leaderDir)
	if _, err := src.OpenCheckpoint(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("OpenCheckpoint before any checkpoint: %v, want ErrNoCheckpoint", err)
	}
	if _, ok := src.CheckpointSeq(); ok {
		t.Fatal("CheckpointSeq reports a checkpoint before any was written")
	}
	for _, b := range batches[:3] {
		if _, err := leader.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	cf, err := src.OpenCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	if cf.Seq() != 3 {
		t.Fatalf("checkpoint covers seq %d, want 3", cf.Seq())
	}
	if seq, ok := src.CheckpointSeq(); !ok || seq != 3 {
		t.Fatalf("CheckpointDir.CheckpointSeq = %d, %v; want 3, true", seq, ok)
	}
	shipped, err := io.ReadAll(cf)
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(filepath.Join(leaderDir, "checkpoint.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shipped, onDisk) {
		t.Fatal("shipped checkpoint differs from the on-disk file")
	}
	if cf.Size() != int64(len(onDisk)) {
		t.Fatalf("Size() = %d, file is %d bytes", cf.Size(), len(onDisk))
	}

	followerDir := t.TempDir()
	follower, err := Open(prEngine(t, base), followerDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := follower.InstallCheckpoint(bytes.NewReader(shipped))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 || follower.Seq() != 3 {
		t.Fatalf("installed seq %d, follower at %d; want 3", seq, follower.Seq())
	}
	valuesMatch(t, follower.Values(), leader.Values(), "install")
	if lg, fg := leader.Snapshot().Generation, follower.Snapshot().Generation; fg != lg {
		t.Fatalf("follower generation %d, leader %d — re-seed must resume the counter", fg, lg)
	}

	// The install must also be durable: stream more records, crash, and
	// recover from the installed checkpoint plus the local journal.
	for _, b := range batches[3:5] {
		if err := follower.ApplyRecord(wal.Record{Seq: follower.Seq() + 1, Batch: b}); err != nil {
			t.Fatal(err)
		}
		if _, err := leader.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	follower.Close()
	recovered, err := Open(prEngine(t, base), followerDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if !recovered.Recovery().FromSnapshot || recovered.Recovery().SnapshotSeq != 3 {
		t.Fatalf("recovery = %+v, want FromSnapshot at seq 3", recovered.Recovery())
	}
	if recovered.Seq() != leader.Seq() {
		t.Fatalf("recovered seq %d, leader at %d", recovered.Seq(), leader.Seq())
	}
	valuesMatch(t, recovered.Values(), leader.Values(), "recover after install")
}

// TestInstallCheckpointRefusesStale: a checkpoint that does not advance
// past the engine's position must be refused without touching state —
// installing it would silently re-apply acknowledged batches.
func TestInstallCheckpointRefusesStale(t *testing.T) {
	base, batches := testStream(t)
	dir := t.TempDir()
	d, err := Open(prEngine(t, base), dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, b := range batches[:3] {
		if _, err := d.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cf, err := CheckpointDir(dir).OpenCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := io.ReadAll(cf)
	cf.Close()
	if err != nil {
		t.Fatal(err)
	}

	before := d.Snapshot()
	if _, err := d.InstallCheckpoint(bytes.NewReader(shipped)); !errors.Is(err, ErrCheckpointStale) {
		t.Fatalf("installing own checkpoint = %v, want ErrCheckpointStale", err)
	}
	if d.Snapshot() != before {
		t.Fatal("refused install still republished a snapshot")
	}
	if d.Seq() != 3 {
		t.Fatalf("seq moved to %d on refused install", d.Seq())
	}
	if d.Ailment() != nil {
		t.Fatalf("stale install set an ailment: %v", d.Ailment())
	}
	if _, err := d.ApplyBatch(batches[3]); err != nil {
		t.Fatalf("ApplyBatch after refused install: %v", err)
	}
}

// TestInstallCheckpointRejectsCorruption: a torn or bit-flipped
// transfer must leave the engine, its journal, and the previous on-disk
// checkpoint untouched — validation strictly precedes commitment.
func TestInstallCheckpointRejectsCorruption(t *testing.T) {
	base, batches := testStream(t)
	leaderDir := t.TempDir()
	leader, err := Open(prEngine(t, base), leaderDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	for _, b := range batches[:4] {
		if _, err := leader.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cf, err := CheckpointDir(leaderDir).OpenCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := io.ReadAll(cf)
	cf.Close()
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"truncated body":     shipped[:len(shipped)-7],
		"header only":        shipped[:wal.CheckpointHeaderSize],
		"empty":              nil,
		"header bit flip":    flip(shipped, 9),
		"snapshot bit flip":  flip(shipped, wal.CheckpointHeaderSize+30),
		"trailer truncation": shipped[:len(shipped)-1],
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := Open(prEngine(t, base), dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if _, err := d.ApplyBatch(batches[0]); err != nil {
				t.Fatal(err)
			}
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			before := d.Snapshot()
			if _, err := d.InstallCheckpoint(bytes.NewReader(data)); err == nil {
				t.Fatal("corrupt install succeeded")
			}
			if d.Snapshot() != before {
				t.Fatal("failed install republished a snapshot")
			}
			if d.Seq() != 1 {
				t.Fatalf("seq moved to %d on failed install", d.Seq())
			}
			if _, err := os.Stat(filepath.Join(dir, "checkpoint.snap.reseed")); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("reseed temp file left behind: %v", err)
			}
			// The previous checkpoint must still recover the engine.
			d.Close()
			r, err := Open(prEngine(t, base), dir, Options{})
			if err != nil {
				t.Fatalf("reopen after failed install: %v", err)
			}
			if r.Seq() != 1 {
				t.Fatalf("recovered to seq %d after failed install", r.Seq())
			}
			r.Close()
		})
	}
}

func flip(data []byte, off int) []byte {
	out := append([]byte(nil), data...)
	out[off] ^= 0x20
	return out
}

// TestInstallCheckpointCrashBeforeTruncate pins the crash window
// between the rename and the journal truncation: the new checkpoint is
// on disk, the journal still holds records it covers. Recovery must
// load the checkpoint and skip the stale records — the same skip rule
// that protects Checkpoint's own crash window.
func TestInstallCheckpointCrashBeforeTruncate(t *testing.T) {
	base, batches := testStream(t)
	leaderDir := t.TempDir()
	leader, err := Open(prEngine(t, base), leaderDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	for _, b := range batches[:4] {
		if _, err := leader.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Follower applied records 1..2 (journal holds them), then "crashed"
	// after the shipped checkpoint's rename landed but before its WAL
	// truncation: simulate by copying the leader checkpoint over the
	// follower's while its journal still holds seq 1..2.
	followerDir := t.TempDir()
	f, err := Open(prEngine(t, base), followerDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches[:2] {
		if err := f.ApplyRecord(wal.Record{Seq: uint64(i + 1), Batch: b}); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	ckpt, err := os.ReadFile(filepath.Join(leaderDir, "checkpoint.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(followerDir, "checkpoint.snap"), ckpt, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(prEngine(t, base), followerDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Seq() != 4 {
		t.Fatalf("recovered to seq %d, want the checkpoint's 4", r.Seq())
	}
	if sk := r.Recovery().Skipped; sk != 2 {
		t.Fatalf("recovery skipped %d journal records, want 2", sk)
	}
	valuesMatch(t, r.Values(), leader.Values(), "crash before truncate")
}
