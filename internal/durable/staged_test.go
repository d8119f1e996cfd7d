package durable

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/faultio"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/wal"
)

// stagedEngine is a PageRank engine whose graphbolt_engine_batches_total
// counter, bumped at the end of core.Engine.Stage, tells a test that the
// engine has staged a batch.
func stagedEngine(t *testing.T, base *graph.Graph) (*core.Engine[float64, float64], *obs.Counter) {
	t.Helper()
	reg := obs.NewRegistry()
	e, err := core.NewEngine[float64, float64](base, algorithms.NewPageRank(), core.Options{MaxIterations: 8, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return e, reg.Counter("graphbolt_engine_batches_total", "")
}

// waitCount waits until c reaches n.
func waitCount(t *testing.T, c *obs.Counter, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Value() < n {
		if time.Now().After(deadline) {
			t.Fatalf("counter at %d, waiting for %d", c.Value(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// reference returns the values of an uninterrupted run over batches.
func reference(t *testing.T, base *graph.Graph, batches []graph.Batch) []float64 {
	t.Helper()
	e := prEngine(t, base)
	e.Run()
	for _, b := range batches {
		if _, err := e.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	return e.Values()
}

// TestHeldFsyncPublishesNothing holds a batch's fsync open after the
// engine has staged the batch: while it is held, the published
// generation and values do not move, OnRecord has not fired and
// ApplyBatch has not returned. Once released, exactly one generation is
// published and it equals an uninterrupted run.
func TestHeldFsyncPublishesNothing(t *testing.T) {
	base, batches := testStream(t)
	eng, staged := stagedEngine(t, base)
	fsync := faultio.NewFsync()
	var records atomic.Int64
	d, err := Open(eng, t.TempDir(), Options{
		WAL:      wal.Options{Hooks: wal.Hooks{BeforeSync: fsync.Check}},
		OnRecord: func(wal.Record) { records.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.ApplyBatch(batches[0]); err != nil {
		t.Fatal(err)
	}
	before := d.Snapshot()
	vals := append([]float64(nil), before.Values...)

	held, release := fsync.Hold()
	defer release()
	done := make(chan error, 1)
	go func() {
		_, err := d.ApplyBatch(batches[1])
		done <- err
	}()
	<-held
	waitCount(t, staged, 2)
	if s := d.Snapshot(); s != before || s.Generation != before.Generation {
		t.Fatalf("generation moved to %d while the fsync was held", s.Generation)
	}
	valuesMatch(t, d.Values(), vals, "published values while held")
	if n := records.Load(); n != 1 {
		t.Fatalf("OnRecord fired %d times while the fsync was held, want 1", n)
	}
	select {
	case err := <-done:
		t.Fatalf("ApplyBatch returned %v while its fsync was held", err)
	default:
	}

	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := d.Snapshot().Generation; got != before.Generation+1 {
		t.Fatalf("generation %d after release, want %d", got, before.Generation+1)
	}
	if n := records.Load(); n != 2 {
		t.Fatalf("OnRecord fired %d times, want 2", n)
	}
	valuesMatch(t, d.Values(), reference(t, base, batches[:2]), "published after release")
}

// TestFsyncFailureAfterStage scripts an fsync failure after the engine
// has staged the batch. The batch must not be published, Recover must
// rebuild the engine's private state without it, and the stream must
// finish bit-equal to an uninterrupted run, with generations that
// neither skip nor repeat; a reopen of the directory reaches the same
// bits. The three cases cover a rebuild from the initial run, from a
// checkpoint on disk, and the follower's ApplyRecord path.
func TestFsyncFailureAfterStage(t *testing.T) {
	cases := []struct {
		name   string
		every  int
		record bool
	}{
		{"no checkpoint", 0, false},
		{"checkpoint", 3, false},
		{"ApplyRecord", 3, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base, batches := testStream(t)
			const failAt = 4 // with CheckpointEvery 3: a checkpoint at seq 3, record 4 in the journal
			eng, staged := stagedEngine(t, base)
			fsync := faultio.NewFsync()
			var records atomic.Int64
			dir := t.TempDir()
			opts := Options{
				CheckpointEvery: tc.every,
				WAL:             wal.Options{Hooks: wal.Hooks{BeforeSync: fsync.Check}},
				OnRecord:        func(wal.Record) { records.Add(1) },
			}
			d, err := Open(eng, dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			apply := func(i int) error {
				if tc.record {
					return d.ApplyRecord(wal.Record{Seq: uint64(i + 1), Batch: batches[i]})
				}
				_, err := d.ApplyBatch(batches[i])
				return err
			}
			gen := d.Snapshot().Generation
			next := func(i int) {
				t.Helper()
				if err := apply(i); err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
				gen++
				if got := d.Snapshot().Generation; got != gen {
					t.Fatalf("batch %d published generation %d, want %d", i, got, gen)
				}
			}
			for i := range failAt {
				next(i)
			}
			if _, found := CheckpointDir(dir).CheckpointSeq(); found != (tc.every > 0) {
				t.Fatalf("checkpoint on disk: %v, want %v", found, tc.every > 0)
			}

			held, release := fsync.Hold()
			done := make(chan error, 1)
			go func() { done <- apply(failAt) }()
			<-held
			waitCount(t, staged, failAt+1)
			fsync.FailEveryKth(1, nil)
			release()
			if err := <-done; !errors.Is(err, faultio.ErrInjected) {
				t.Fatalf("apply with failed fsync = %v", err)
			}
			fsync.FailEveryKth(0, nil)
			if d.Ailment() == nil {
				t.Fatal("failed fsync left no ailment")
			}
			if got := d.Snapshot().Generation; got != gen {
				t.Fatalf("failed batch published generation %d", got)
			}
			if n := records.Load(); n != failAt {
				t.Fatalf("OnRecord fired %d times, want %d (not for the failed batch)", n, failAt)
			}
			if err := d.Checkpoint(); err == nil {
				t.Fatal("Checkpoint accepted a staged batch the journal lacks")
			}
			if err := d.Recover(); err != nil {
				t.Fatal(err)
			}
			if d.Seq() != failAt {
				t.Fatalf("seq %d after Recover, want %d", d.Seq(), failAt)
			}
			for i := failAt; i < len(batches); i++ {
				next(i)
			}
			want := reference(t, base, batches)
			valuesMatch(t, d.Values(), want, "rebuilt vs uninterrupted")
			d.Close()

			re, err := Open(prEngine(t, base), dir, Options{CheckpointEvery: tc.every})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Seq() != uint64(len(batches)) || re.Snapshot().Generation != gen {
				t.Fatalf("reopened at seq %d generation %d, want %d and %d",
					re.Seq(), re.Snapshot().Generation, len(batches), gen)
			}
			valuesMatch(t, re.Values(), want, "reopened vs uninterrupted")
		})
	}
}
