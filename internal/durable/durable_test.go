package durable

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/faultio"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stream"
	"repro/internal/wal"
)

// valuesMatch compares bit for bit: a run is a function of its batch
// sequence, so a recovered, rebuilt or re-seeded engine that skipped or
// double-applied a record differs somewhere, however small the effect.
func valuesMatch(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for v := range got {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("%s: vertex %d: got %v want %v", label, v, got[v], want[v])
		}
	}
}

// checkRecoveryEquivalence is the property test at the heart of the
// durability design: for EVERY prefix length k, a run that is killed
// after batch k, recovered from disk, and then fed the rest of the
// stream must end with the same values as a run that never crashed.
func checkRecoveryEquivalence(t *testing.T, batches []graph.Batch, newEngine func() *core.Engine[float64, float64]) {
	t.Helper()
	want := newEngine()
	want.Run()
	for _, b := range batches {
		if _, err := want.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	opts := Options{CheckpointEvery: 3} // some kill points land between checkpoints, some right after
	for k := range batches {
		dir := t.TempDir()
		d, err := Open(newEngine(), dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches[:k+1] {
			if _, err := d.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		// "Crash": abandon the engine. SyncEveryBatch (the default) has
		// already pushed every acknowledged batch to disk.
		d.Close()

		recovered, err := Open(newEngine(), dir, opts)
		if err != nil {
			t.Fatalf("kill after batch %d: reopen: %v", k, err)
		}
		if got := recovered.Seq(); got != uint64(k+1) {
			t.Fatalf("kill after batch %d: recovered to seq %d", k, got)
		}
		for _, b := range batches[k+1:] {
			if _, err := recovered.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		valuesMatch(t, recovered.Values(), want.Values(), "recovery equivalence")
		recovered.Close()
	}
}

func TestRecoveryEquivalencePageRank(t *testing.T) {
	edges := gen.RMAT(31, 120, 900, gen.WeightUniform)
	s, err := stream.FromEdges(120, edges, stream.Config{BatchSize: 60, DeleteFraction: 0.3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	newEngine := func() *core.Engine[float64, float64] {
		e, err := core.NewEngine[float64, float64](s.Base, algorithms.NewPageRank(), core.Options{MaxIterations: 8})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	checkRecoveryEquivalence(t, s.Batches, newEngine)
}

func TestRecoveryEquivalenceSSSP(t *testing.T) {
	edges := gen.RMAT(33, 120, 900, gen.WeightSmallInt)
	s, err := stream.FromEdges(120, edges, stream.Config{BatchSize: 60, DeleteFraction: 0.3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	newEngine := func() *core.Engine[float64, float64] {
		e, err := core.NewEngine[float64, float64](s.Base, algorithms.NewSSSP(0), core.Options{MaxIterations: 50})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	checkRecoveryEquivalence(t, s.Batches, newEngine)
}

func testStream(t *testing.T) (*graph.Graph, []graph.Batch) {
	t.Helper()
	edges := gen.RMAT(35, 100, 700, gen.WeightUniform)
	s, err := stream.FromEdges(100, edges, stream.Config{BatchSize: 50, DeleteFraction: 0.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Batches) < 5 {
		t.Fatalf("stream too short: %d batches", len(s.Batches))
	}
	return s.Base, s.Batches
}

func prEngine(t *testing.T, base *graph.Graph) *core.Engine[float64, float64] {
	t.Helper()
	e, err := core.NewEngine[float64, float64](base, algorithms.NewPageRank(), core.Options{MaxIterations: 8})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCrashBetweenCheckpointAndTruncate exercises the one crash window
// the sequence numbers exist for: the checkpoint has been renamed into
// place but the WAL has not been truncated yet, so every journal record
// is a duplicate of state already inside the checkpoint.
func TestCrashBetweenCheckpointAndTruncate(t *testing.T) {
	base, batches := testStream(t)
	dir := t.TempDir()
	d, err := Open(prEngine(t, base), dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:4] {
		if _, err := d.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	before := append([]float64(nil), d.Values()...)
	// First half of Checkpoint only: snapshot is durable, WAL untouched.
	if err := d.writeCheckpoint(); err != nil {
		t.Fatal(err)
	}
	d.Close()

	recovered, err := Open(prEngine(t, base), dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	info := recovered.Recovery()
	if !info.FromSnapshot || info.SnapshotSeq != 4 {
		t.Fatalf("recovery info %+v, want snapshot at seq 4", info)
	}
	if info.Skipped != 4 || info.Replayed != 0 {
		t.Fatalf("recovery info %+v, want all 4 journal records skipped as pre-checkpoint", info)
	}
	valuesMatch(t, recovered.Values(), before, "post-checkpoint recovery")
	// The recovered engine keeps streaming normally.
	if _, err := recovered.ApplyBatch(batches[4]); err != nil {
		t.Fatal(err)
	}
	if recovered.Seq() != 5 {
		t.Fatalf("seq %d after continuing, want 5", recovered.Seq())
	}
}

func TestCorruptCheckpointTypedError(t *testing.T) {
	base, batches := testStream(t)
	dir := t.TempDir()
	d, err := Open(prEngine(t, base), dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:2] {
		if _, err := d.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	path := filepath.Join(dir, snapFile)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(t *testing.T, off int) {
		t.Helper()
		data := append([]byte(nil), pristine...)
		data[off] ^= 0x04
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(prEngine(t, base), dir, Options{})
		if !errors.Is(err, core.ErrSnapshotCorrupt) {
			t.Fatalf("err = %v, want errors.Is(..., core.ErrSnapshotCorrupt)", err)
		}
	}
	t.Run("bit flip in engine state", func(t *testing.T) { corrupt(t, wal.CheckpointHeaderSize+24) })
	t.Run("bit flip in seq header", func(t *testing.T) { corrupt(t, 10) })
}

// TestFailedApplyNotReplayed: a batch that journals fine but blows up
// the in-memory apply (buggy vertex function) must be rolled out of the
// WAL — otherwise every recovery would re-apply it and die the same way.
func TestFailedApplyNotReplayed(t *testing.T) {
	g := graph.MustBuild(50, gen.RMAT(5, 50, 300, gen.WeightUniform))
	newEngine := func() *core.Engine[float64, float64] {
		p := &panicProgram{inner: algorithms.NewPageRank(), bad: 50}
		e, err := core.NewEngine[float64, float64](g, p, core.Options{MaxIterations: 6})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	dir := t.TempDir()
	d, err := Open(newEngine(), dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyBatch(graph.Batch{Add: []graph.Edge{{From: 0, To: 1, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	// Vertex 50 only exists once this batch lands, so Validate passes and
	// the journal write succeeds; the panic fires during the apply.
	poison := graph.Batch{Add: []graph.Edge{{From: 0, To: 50, Weight: 1}}}
	if _, err := d.ApplyBatch(poison); err == nil {
		t.Fatal("poison batch applied cleanly")
	}
	d.Close()

	// If the poison batch were still journaled, this Open would replay it
	// into the same panicking program and fail.
	recovered, err := Open(newEngine(), dir, Options{})
	if err != nil {
		t.Fatalf("reopen after failed apply: %v", err)
	}
	defer recovered.Close()
	if recovered.Seq() != 1 {
		t.Fatalf("recovered seq %d, want 1 (poison batch rolled back)", recovered.Seq())
	}
}

// panicProgram wraps PageRank with a Compute that panics on one vertex.
type panicProgram struct {
	inner core.Program[float64, float64]
	bad   core.VertexID
}

func (p *panicProgram) InitValue(v core.VertexID) float64 { return p.inner.InitValue(v) }
func (p *panicProgram) IdentityAgg() float64              { return p.inner.IdentityAgg() }
func (p *panicProgram) Propagate(agg *float64, src float64, u, v core.VertexID, w float64, d int) {
	p.inner.Propagate(agg, src, u, v, w, d)
}
func (p *panicProgram) Retract(agg *float64, src float64, u, v core.VertexID, w float64, d int) {
	p.inner.Retract(agg, src, u, v, w, d)
}
func (p *panicProgram) Compute(v core.VertexID, agg float64) float64 {
	if v == p.bad {
		panic("vertex function bug")
	}
	return p.inner.Compute(v, agg)
}
func (p *panicProgram) Changed(oldV, newV float64) bool { return p.inner.Changed(oldV, newV) }
func (p *panicProgram) CloneAgg(a float64) float64      { return a }
func (p *panicProgram) AggBytes(a float64) int          { return p.inner.AggBytes(a) }

func TestMalformedBatchNotJournaled(t *testing.T) {
	base, _ := testStream(t)
	d, err := Open(prEngine(t, base), t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	size := d.w.Size()
	_, err = d.ApplyBatch(graph.Batch{Add: []graph.Edge{{From: 0, To: 1, Weight: math.NaN()}}})
	if !errors.Is(err, graph.ErrInvalidEdge) {
		t.Fatalf("err = %v, want errors.Is(..., graph.ErrInvalidEdge)", err)
	}
	if d.w.Size() != size {
		t.Fatal("malformed batch reached the journal")
	}
	if d.Seq() != 0 {
		t.Fatalf("seq advanced to %d on a rejected batch", d.Seq())
	}
}

func TestAutoCheckpointTruncatesWAL(t *testing.T) {
	base, batches := testStream(t)
	d, err := Open(prEngine(t, base), t.TempDir(), Options{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, b := range batches[:3] {
		if _, err := d.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if d.snapSeq != 2 || d.since != 1 {
		t.Fatalf("snapSeq=%d since=%d after 3 batches with CheckpointEvery=2", d.snapSeq, d.since)
	}
	// Only batch 3 should still be journaled.
	walPath := filepath.Join(d.dir, walFile)
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if d.w.Size() != fi.Size() {
		t.Fatalf("tracked WAL size %d vs on-disk %d", d.w.Size(), fi.Size())
	}
}

func TestOpenRejectsRanEngine(t *testing.T) {
	base, _ := testStream(t)
	e := prEngine(t, base)
	e.Run()
	if _, err := Open(e, t.TempDir(), Options{}); err == nil {
		t.Fatal("Open accepted an engine that already ran")
	}
}

// TestAilmentRecoverEquivalence drives the degraded-write protocol: a
// persistent fsync fault sets an ailment, writes fail fast while it
// lasts, Recover clears it once the fault lifts, and the final state —
// in memory and after a reopen from disk — matches a run that never saw
// the fault.
func TestAilmentRecoverEquivalence(t *testing.T) {
	base, batches := testStream(t)
	fsync := faultio.NewFsync()
	dir := t.TempDir()
	d, err := Open(prEngine(t, base), dir, Options{
		WAL: wal.Options{Hooks: wal.Hooks{BeforeSync: fsync.Check}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyBatch(batches[0]); err != nil {
		t.Fatal(err)
	}

	fsync.FailEveryKth(1, nil) // every fsync fails until disarmed
	if _, err := d.ApplyBatch(batches[1]); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("apply under fsync fault: %v", err)
	}
	if d.Ailment() == nil {
		t.Fatal("fsync fault left no ailment")
	}
	// Ailing engine fails fast without touching the journal.
	size := d.w.Size()
	if _, err := d.ApplyBatch(batches[1]); err == nil {
		t.Fatal("apply on ailing engine succeeded")
	}
	if d.w.Size() != size {
		t.Fatal("fail-fast apply reached the journal")
	}
	if d.Seq() != 1 {
		t.Fatalf("seq = %d after rejected batch, want 1", d.Seq())
	}
	// Reads keep working while writes are off.
	if d.Values() == nil || d.Snapshot() == nil {
		t.Fatal("reads unavailable while degraded")
	}
	// Recover under the persistent fault fails and keeps the ailment.
	if err := d.Recover(); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("Recover under persistent fault: %v", err)
	}
	if d.Ailment() == nil {
		t.Fatal("failed Recover cleared the ailment")
	}

	fsync.FailEveryKth(0, nil)
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if d.Ailment() != nil {
		t.Fatalf("ailment after successful Recover: %v", d.Ailment())
	}
	for _, b := range batches[1:] {
		if _, err := d.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if d.Seq() != uint64(len(batches)) {
		t.Fatalf("seq = %d, want %d", d.Seq(), len(batches))
	}

	want := prEngine(t, base)
	want.Run()
	for _, b := range batches {
		if _, err := want.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	valuesMatch(t, d.Values(), want.Values(), "degraded-episode equivalence")

	// The journal must also be clean: a reopen replays to the same state.
	d.Close()
	re, err := Open(prEngine(t, base), dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Seq() != uint64(len(batches)) {
		t.Fatalf("reopened seq = %d, want %d", re.Seq(), len(batches))
	}
	valuesMatch(t, re.Values(), want.Values(), "reopen equivalence")
}

// TestCheckpointFailureReportedOutOfBand pins the no-double-apply rule:
// when the batch applies cleanly but the checkpoint that follows fails,
// ApplyBatch reports success (retrying would apply the batch twice) and
// the fault surfaces through Ailment.
func TestCheckpointFailureReportedOutOfBand(t *testing.T) {
	base, batches := testStream(t)
	fsync := faultio.NewFsync()
	d, err := Open(prEngine(t, base), t.TempDir(), Options{
		CheckpointEvery: 1,
		WAL:             wal.Options{Hooks: wal.Hooks{BeforeSync: fsync.Check}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Per batch: sync #1 is the append, sync #2 the post-checkpoint log
	// reset. Failing every 2nd sync hits exactly the checkpoint's reset.
	fsync.FailEveryKth(2, nil)
	if _, err := d.ApplyBatch(batches[0]); err != nil {
		t.Fatalf("apply with failing checkpoint returned %v, want nil (out-of-band)", err)
	}
	if d.Seq() != 1 {
		t.Fatalf("seq = %d, want 1 (batch applied)", d.Seq())
	}
	if d.Ailment() == nil {
		t.Fatal("checkpoint failure left no ailment")
	}
	if _, err := d.ApplyBatch(batches[1]); err == nil {
		t.Fatal("apply on ailing engine succeeded")
	}

	fsync.FailEveryKth(0, nil)
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyBatch(batches[1]); err != nil {
		t.Fatal(err)
	}
	if d.Seq() != 2 {
		t.Fatalf("seq = %d, want 2", d.Seq())
	}
}

func TestCloseIdempotent(t *testing.T) {
	base, _ := testStream(t)
	d, err := Open(prEngine(t, base), t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}
