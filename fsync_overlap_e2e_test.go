package graphbolt_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	graphbolt "repro"
	"repro/internal/faultio"
	"repro/internal/wal"
)

// TestHeldFsyncFollower holds a durable server's fsync open after the
// engine has staged the batch and checks that nothing downstream of the
// journal sees the batch early: the published generation and values do
// not move, the ticket is unresolved, the replication log has not
// received the record and an in-memory follower streaming it over HTTP
// has not applied it. Once the fsync is released exactly one generation
// is published and the follower applies it, bit for bit.
func TestHeldFsyncFollower(t *testing.T) {
	strm := replicaStream(t, 4)
	reg := graphbolt.NewMetricsRegistry()
	leaderEng, err := graphbolt.NewEngine[float64, float64](strm.Base, graphbolt.NewPageRank(),
		graphbolt.Options{MaxIterations: 6, Retain: 8, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	staged := reg.Counter("graphbolt_engine_batches_total", "")
	rlog := graphbolt.NewReplicationLog(graphbolt.ReplicationLogOptions{
		Heartbeat: 5 * time.Millisecond,
		Logger:    quietLogger(),
	})
	fsync := faultio.NewFsync()
	d, err := graphbolt.OpenDurable(leaderEng, t.TempDir(), graphbolt.DurableOptions{
		OnRecord: rlog.Append,
		WAL:      graphbolt.WALOptions{Hooks: wal.Hooks{BeforeSync: fsync.Check}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rlog.SetFloor(d.Recovery().SnapshotSeq)
	srv := graphbolt.NewDurableServer(d, graphbolt.ServerOptions{DisableCoalescing: true, Logger: quietLogger()})
	ctx := context.Background()
	defer srv.Close(ctx)
	ts := httptest.NewServer(rlog.Handler())
	defer ts.Close()
	defer rlog.Close() // runs before ts.Close, ending open streams

	feng, err := graphbolt.NewEngine[float64, float64](strm.Base, graphbolt.NewPageRank(),
		graphbolt.Options{MaxIterations: 6, Retain: 8})
	if err != nil {
		t.Fatal(err)
	}
	f, err := graphbolt.NewFollower(feng, nil, ts.URL, graphbolt.FollowerOptions{
		Client: ts.Client(),
		Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start(ctx)
	defer f.Close(ctx)

	tk, err := srv.Submit(ctx, strm.Batches[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, f, 1)
	before := srv.Snapshot()
	vals := append([]float64(nil), before.Values...)

	held, release := fsync.Hold()
	defer release() // runs before srv.Close, which waits for the apply goroutine
	tk, err = srv.Submit(ctx, strm.Batches[1])
	if err != nil {
		t.Fatal(err)
	}
	<-held
	for deadline := time.Now().Add(10 * time.Second); staged.Value() < 2; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("engine never staged the batch while its fsync was held")
		}
	}
	if s := srv.Snapshot(); s.Generation != before.Generation {
		t.Fatalf("generation moved %d → %d while the fsync was held", before.Generation, s.Generation)
	}
	valuesBitEqual(t, srv.Snapshot().Values, vals, "published values while held")
	select {
	case ap := <-tk.Done():
		t.Fatalf("ticket resolved while its fsync was held: %+v", ap)
	default:
	}
	if got := rlog.Last(); got != 1 {
		t.Fatalf("replication log at seq %d while the fsync was held, want 1", got)
	}
	if got := f.AppliedSeq(); got != 1 {
		t.Fatalf("follower applied seq %d while the fsync was held, want 1", got)
	}

	release()
	ap, err := tk.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	after := srv.Snapshot()
	if after.Generation != before.Generation+1 || ap.Seq != 2 {
		t.Fatalf("after release: generation %d (want %d), apply seq %d (want 2)",
			after.Generation, before.Generation+1, ap.Seq)
	}
	waitApplied(t, f, 2)
	fs := f.Snapshot()
	if fs.Generation != after.Generation {
		t.Fatalf("follower generation %d, leader %d", fs.Generation, after.Generation)
	}
	valuesBitEqual(t, fs.Values, after.Values, "follower vs leader")
}
