package graphbolt_test

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"math"
	"slices"
	"testing"
	"time"

	graphbolt "repro"
	"repro/internal/core/difftest"
	"repro/internal/faultio"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stream"
	"repro/internal/wal"
)

// TestChaosSoak drives a long randomized mutation stream through a
// durable server while storage faults fire underneath it — periodic
// fsync failures, torn writes, transient write outages — and scripted
// poison batches are interleaved with the valid ones. It asserts the
// self-healing contract end to end:
//
//   - the server survives every fault and ends Healthy;
//   - exactly the poison batches are quarantined (the valid ones all
//     apply, in order, despite the degraded episodes in between);
//   - the final values equal a from-scratch ModeReset run over the
//     surviving stream — the BSP equivalence guarantee holds across
//     quarantines and recoveries;
//   - a process restart (reopen from the same directory, no faults)
//     recovers the same state the live server ended with.
//
// Run it under the race detector via `make chaos`; -short shrinks the
// stream for CI.
func TestChaosSoak(t *testing.T) {
	nBatches := 220
	if testing.Short() {
		nBatches = 40
	}
	const nVerts = 256
	edges := gen.RMAT(42, nVerts, 6000, gen.WeightUniform)
	strm, err := stream.FromEdges(nVerts, edges, stream.Config{
		BatchSize:      12,
		DeleteFraction: 0.25,
		NumBatches:     nBatches,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(strm.Batches) < nBatches {
		t.Fatalf("stream yielded %d batches, want %d", len(strm.Batches), nBatches)
	}

	eng, err := graphbolt.NewEngine[float64, float64](strm.Base, graphbolt.NewPageRank(),
		graphbolt.Options{MaxIterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var inj *faultio.Writer
	fsync := faultio.NewFsync()
	d, err := graphbolt.OpenDurable(eng, dir, graphbolt.DurableOptions{
		CheckpointEvery: 25,
		WAL: graphbolt.WALOptions{
			Sync: graphbolt.SyncEveryBatch,
			Hooks: wal.Hooks{
				WrapWriter: func(w io.Writer) io.Writer {
					inj = faultio.NewWriter(w)
					return inj
				},
				BeforeSync: fsync.Check,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	srv := graphbolt.NewDurableServer(d, graphbolt.ServerOptions{
		DisableCoalescing: true, // one journal record per stream batch
		Backoff:           graphbolt.BackoffPolicy{Base: 500 * time.Microsecond, Max: 5 * time.Millisecond},
		Logger:            slog.New(slog.DiscardHandler),
	})
	gen0 := srv.Generation()

	// The whole run happens under a flaky disk: every 7th fsync fails.
	// The fault is periodic, not latched, so each degraded episode's
	// repair-and-retry loop converges on its own.
	fsync.FailEveryKth(7, nil)

	ctx := context.Background()
	submit := func(b graphbolt.Batch) *graphbolt.SubmitTicket {
		t.Helper()
		for {
			tk, err := srv.Submit(ctx, b)
			if err == nil {
				return tk
			}
			if !errors.Is(err, graphbolt.ErrDegraded) {
				t.Fatalf("Submit failed non-degraded: %v", err)
			}
			time.Sleep(200 * time.Microsecond) // degraded: recovery in flight
		}
	}
	mkPoison := func(k int) graphbolt.Batch {
		if k%2 == 0 {
			return graphbolt.Batch{Add: []graphbolt.Edge{
				{From: 1, To: 2, Weight: 1},
				{From: 3, To: graph.MaxVertexID + 1, Weight: 1}, // out of range
			}}
		}
		return graphbolt.Batch{Add: []graphbolt.Edge{
			{From: 4, To: 5, Weight: math.NaN()},
		}}
	}

	var (
		tickets    []*graphbolt.SubmitTicket // every accepted submission, in order
		poisonSeqs []uint64                  // accepted-submission ordinals of the poisons
	)
	for i, b := range strm.Batches[:nBatches] {
		// Scripted faults, armed from the producer goroutine while the
		// apply loop races underneath (the injectors are mutex-guarded).
		if i%23 == 13 {
			inj.ShortNext(5, nil) // torn append: frame cut mid-record
		}
		if i%37 == 19 {
			inj.FailNWrites(2, nil) // transient outage: next two writes refused
		}
		if i%29 == 7 {
			tickets = append(tickets, submit(mkPoison(len(poisonSeqs))))
			poisonSeqs = append(poisonSeqs, uint64(len(tickets)))
		}
		tickets = append(tickets, submit(b))
	}

	// Disarm the disk before draining: every held batch must now land.
	fsync.FailEveryKth(0, nil)
	if _, err := srv.Sync(ctx); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// Exactly the scripted poisons were rejected, identified by their
	// submission ordinals, each wrapping the validation sentinel; every
	// other batch applied.
	var rejected []uint64
	for i, tk := range tickets {
		_, err := tk.Wait(ctx)
		switch {
		case err == nil:
		case errors.Is(err, graphbolt.ErrInvalidBatch):
			rejected = append(rejected, uint64(i+1))
		default:
			t.Fatalf("submission %d resolved with %v", i+1, err)
		}
	}
	if !slices.Equal(rejected, poisonSeqs) {
		t.Fatalf("rejected submissions %v, want the poisons %v", rejected, poisonSeqs)
	}

	// The server must end Healthy. An out-of-band checkpoint ailment can
	// still be healing for a moment after the last ticket resolves.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Health().State() != graphbolt.HealthHealthy {
		if time.Now().After(deadline) {
			t.Fatalf("server did not return to Healthy: %+v", srv.Health().Info())
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Err(); err != nil {
		t.Fatalf("loop reported terminal failure: %v", err)
	}

	nValid := uint64(len(tickets) - len(poisonSeqs))
	if got := srv.Generation(); got != gen0+nValid {
		t.Fatalf("Generation() = %d, want %d (one per surviving batch)", got, gen0+nValid)
	}

	finalSnap := srv.Snapshot()
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// BSP equivalence on the surviving stream: a from-scratch ModeReset
	// engine that never saw the poisons or the faults must agree.
	fresh, err := graphbolt.NewEngine[float64, float64](strm.Base, graphbolt.NewPageRank(),
		graphbolt.Options{Mode: graphbolt.ModeReset, MaxIterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	fresh.Run()
	for i, b := range strm.Batches[:nBatches] {
		if _, err := fresh.ApplyBatch(b); err != nil {
			t.Fatalf("baseline batch %d: %v", i+1, err)
		}
	}
	valuesClose(t, finalSnap.Values, fresh.Values(), 1e-6, "streamed vs from-scratch")

	// Restart: recovering from the directory the faulted run left behind
	// (checkpoint + journal tail) reproduces the final state.
	eng2, err := graphbolt.NewEngine[float64, float64](strm.Base, graphbolt.NewPageRank(),
		graphbolt.Options{MaxIterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := graphbolt.OpenDurable(eng2, dir, graphbolt.DurableOptions{CheckpointEvery: 25})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	if got := d2.Seq(); got != nValid {
		t.Fatalf("recovered journal Seq = %d, want %d (quarantined batches never journaled)", got, nValid)
	}
	valuesBitEqual(t, eng2.Values(), finalSnap.Values, "recovered vs live")
}

// valuesBitEqual compares two value slices bit for bit. A run is a
// function of its batch sequence, so two runs of the same surviving
// stream in the same mode agree exactly; a skipped or double-applied
// record shows however small its effect.
func valuesBitEqual(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values vs %d", label, len(got), len(want))
	}
	for v := range got {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("%s: vertex %d: %v vs %v", label, v, got[v], want[v])
		}
	}
}

// valuesClose compares two value slices within absolute tolerance eps
// (difftest.Approx); the tolerance covers accumulated float drift
// between execution modes — a leaked poison batch or lost journal
// record shifts values by far more.
func valuesClose(t *testing.T, got, want []float64, eps float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values vs %d", label, len(got), len(want))
	}
	for v := range got {
		if !difftest.Approx(got[v], want[v], 0, eps) {
			t.Fatalf("%s: vertex %d: %v vs %v (|Δ|=%g > %g)", label, v, got[v], want[v], math.Abs(got[v]-want[v]), eps)
		}
	}
}
