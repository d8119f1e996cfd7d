package graphbolt_test

import (
	"context"
	"errors"
	"log/slog"
	"math"
	"math/rand"
	"testing"
	"time"

	graphbolt "repro"
	"repro/internal/faultio"
	"repro/internal/wal"
)

// TestShardSoak is the sharded self-healing soak (run under -race via
// `make shard`): a 3-shard durable server serves a randomized
// partition-closed stream while shard 1's journal — and only shard
// 1's — sits on a flaky disk. It asserts the sharded durability
// contract end to end:
//
//   - with shard 1's fsync hard-failing, the fault is reported on shard
//     1 alone (its siblings' journals stay clean) while the server as a
//     whole goes Degraded and refuses writes with ErrDegraded — the
//     failure domain is the one ingest loop's;
//   - scripted poison batches are quarantined once each, at dequeue,
//     despite the concurrent fault episodes;
//   - once the disk heals, the held batch lands, the server returns to
//     Healthy with no terminal error, every shard journaled each of its
//     sub-batches exactly once (a replay after a partial failure skips
//     the shards that already applied), and the merged values equal a
//     from-scratch ModeReset run over the surviving stream;
//   - a restart (OpenShardedDurable over the same directory tree, no
//     faults) recovers every shard and reproduces the live state.
func TestShardSoak(t *testing.T) {
	nBatches := 150
	if testing.Short() {
		nBatches = 40
	}
	const (
		n      = 48
		shards = 3
	)
	assign, pools := roundRobinAssign(n, shards)
	rng := rand.New(rand.NewSource(11))
	mirror := shardMirror{n: n, edges: closedEdges(rng, pools, 3*n)}

	g, err := graphbolt.BuildGraph(n, append([]graphbolt.Edge(nil), mirror.edges...))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := graphbolt.NewEngine[float64, float64](g, graphbolt.NewPageRank(),
		graphbolt.Options{MaxIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fsync := faultio.NewFsync()
	sd, err := graphbolt.OpenShardedDurable(eng, dir, shards, assign,
		func(shard int) graphbolt.DurableOptions {
			o := graphbolt.DurableOptions{
				CheckpointEvery: 20,
				WAL:             graphbolt.WALOptions{Sync: graphbolt.SyncEveryBatch},
			}
			if shard == 1 {
				o.WAL.Hooks = wal.Hooks{BeforeSync: fsync.Check}
			}
			return o
		})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := graphbolt.NewShardedDurableServer(sd, graphbolt.ServerOptions{
		DisableCoalescing: true, // one journal record per sub-batch
		QuarantineDepth:   8,
		Backoff:           graphbolt.BackoffPolicy{Base: 500 * time.Microsecond, Max: 5 * time.Millisecond},
		Logger:            slog.New(slog.DiscardHandler),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Phase 1 — hard outage on shard 1's disk: every fsync fails, so the
	// first batch touching shard 1 wedges the server in Degraded while
	// recovery retries under backoff. The batch spans shards 0 and 1:
	// shard 0's half lands on the first attempt and must not land again
	// when the held batch is replayed.
	fsync.FailEveryKth(1, nil)
	p0, p1 := pools[0], pools[1]
	first := graphbolt.Batch{Add: []graphbolt.Edge{
		{From: p0[0], To: p0[1], Weight: 1},
		{From: p1[0], To: p1[1], Weight: 1},
	}}
	held, err := srv.Submit(ctx, first)
	if err != nil {
		t.Fatalf("Submit to faulted shard: %v", err)
	}
	mirror = mirror.apply(first)

	deadline := time.Now().Add(10 * time.Second)
	for srv.ShardInfos()[1].Ailment == nil {
		if time.Now().After(deadline) {
			t.Fatalf("shard 1 never reported its fault: %+v", srv.ShardInfos())
		}
		time.Sleep(time.Millisecond)
	}
	for srv.Health().State() != graphbolt.HealthDegraded {
		if time.Now().After(deadline) {
			t.Fatalf("server health = %v with shard 1 ailing, want Degraded", srv.Health().State())
		}
		time.Sleep(time.Millisecond)
	}
	// The fault is confined to shard 1's journal; the refusal is
	// server-wide.
	for _, s := range []int{0, 2} {
		if si := srv.ShardInfos()[s]; si.Ailment != nil {
			t.Fatalf("shard %d reports %v during shard 1's outage", s, si.Ailment)
		}
	}
	if _, err := srv.Submit(ctx, graphbolt.Batch{Add: []graphbolt.Edge{
		{From: p0[0], To: p0[2], Weight: 1},
	}}); !errors.Is(err, graphbolt.ErrDegraded) {
		t.Fatalf("Submit while degraded = %v, want ErrDegraded", err)
	}

	// Heal the disk: the held batch lands and the server recovers.
	fsync.FailEveryKth(0, nil)
	if _, err := held.Wait(ctx); err != nil {
		t.Fatalf("held batch resolved with %v after heal", err)
	}
	if si := srv.ShardInfos(); si[0].Applied != 1 || si[1].Applied != 1 || si[2].Applied != 0 {
		t.Fatalf("after the replay shards applied %+v, want 1/1/0 sub-batches", si)
	}

	// Phase 2 — soak under a periodically flaky disk: every 5th fsync
	// on shard 1 fails while the randomized stream (most batches
	// cross-shard) flows, with scripted poisons in between. Submit fails
	// fast during each degraded episode; the producer resubmits.
	fsync.FailEveryKth(5, nil)
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
	var poisons []*graphbolt.SubmitTicket
	p2 := pools[2]
	for i := 0; i < nBatches; i++ {
		if i == nBatches/3 || i == 2*nBatches/3 {
			poisons = append(poisons, submit(graphbolt.Batch{Add: []graphbolt.Edge{
				{From: p0[0], To: p0[1], Weight: 1},
				{From: p2[0], To: p2[1], Weight: math.NaN()},
			}}))
		}
		b := randomClosedBatch(rng, mirror, pools)
		mirror = mirror.apply(b)
		submit(b)
	}

	// Drain under a healthy disk; every poison ticket must have been
	// refused with the validation sentinel.
	fsync.FailEveryKth(0, nil)
	if _, err := srv.Sync(ctx); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	for i, tk := range poisons {
		if _, err := tk.Wait(ctx); !errors.Is(err, graphbolt.ErrInvalidBatch) {
			t.Fatalf("poison %d resolved with %v, want ErrInvalidBatch", i, err)
		}
	}
	if fsync.Failures() == 0 {
		t.Fatal("fault injector never fired; the soak exercised nothing")
	}

	// Each poison was quarantined exactly once across the faults.
	if got := srv.QuarantinedTotal(); got != uint64(len(poisons)) {
		t.Fatalf("QuarantinedTotal() = %d, want %d", got, len(poisons))
	}

	// The server ends Healthy with no terminal error.
	deadline = time.Now().Add(10 * time.Second)
	for srv.Health().State() != graphbolt.HealthHealthy {
		if time.Now().After(deadline) {
			t.Fatalf("server never returned to Healthy: %+v", srv.Health().Info())
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Err(); err != nil {
		t.Fatalf("terminal failure after soak: %v", err)
	}

	// BSP equivalence across the degraded episodes: merged values equal
	// a from-scratch run that never saw the faults or poisons.
	finalSnap := srv.Snapshot()
	refG, err := graphbolt.BuildGraph(mirror.n, append([]graphbolt.Edge(nil), mirror.edges...))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := graphbolt.NewEngine[float64, float64](refG, graphbolt.NewPageRank(),
		graphbolt.Options{Mode: graphbolt.ModeReset, MaxIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	fresh.Run()
	if got, want := finalSnap.Graph.NumEdges(), refG.NumEdges(); got != want {
		t.Fatalf("merged graph has %d edges, the mirror %d", got, want)
	}
	valuesClose(t, finalSnap.Values, fresh.Values(), 1e-6, "soaked merged vs from-scratch")

	infos := srv.ShardInfos()
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// No double apply: each shard's journal advanced once per sub-batch
	// its engine applied, replays after partial failures included.
	for s, si := range infos {
		if got := sd.Shard(s).Seq(); got != si.Applied || got == 0 {
			t.Fatalf("shard %d journal seq %d, engine applied %d sub-batches", s, got, si.Applied)
		}
	}

	// Restart: recovering every shard from the directory tree the
	// faulted run left behind reproduces the live state.
	g2, err := graphbolt.BuildGraph(n, g.Edges(nil))
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := graphbolt.NewEngine[float64, float64](g2, graphbolt.NewPageRank(),
		graphbolt.Options{MaxIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	sd2, err := graphbolt.OpenShardedDurable(eng2, dir, shards, assign,
		func(int) graphbolt.DurableOptions {
			return graphbolt.DurableOptions{CheckpointEvery: 20}
		})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := len(sd2.Recovery()); got != shards {
		t.Fatalf("reopen recovered %d shards, want %d", got, shards)
	}
	srv2, err := graphbolt.NewShardedDurableServer(sd2, graphbolt.ServerOptions{
		Logger: slog.New(slog.DiscardHandler),
	})
	if err != nil {
		t.Fatalf("reopen server: %v", err)
	}
	valuesClose(t, srv2.Snapshot().Values, finalSnap.Values, 1e-9, "recovered vs live")
	if err := srv2.Close(ctx); err != nil {
		t.Fatalf("reopen Close: %v", err)
	}
}
