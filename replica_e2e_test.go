package graphbolt_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	graphbolt "repro"
	"repro/internal/backoff"
	"repro/internal/core/difftest"
	"repro/internal/faultio"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/stream"
)

// replicaStream builds a deterministic base graph + mutation stream
// shared by leader and follower engines.
func replicaStream(t *testing.T, nBatches int) *stream.Stream {
	t.Helper()
	const nVerts = 128
	edges := gen.RMAT(11, nVerts, 3000, gen.WeightUniform)
	strm, err := stream.FromEdges(nVerts, edges, stream.Config{
		BatchSize:      10,
		DeleteFraction: 0.2,
		NumBatches:     nBatches,
		Seed:           13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(strm.Batches) < nBatches {
		t.Fatalf("stream yielded %d batches, want %d", len(strm.Batches), nBatches)
	}
	return strm
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// waitApplied blocks until the follower acks seq or the deadline hits.
func waitApplied[V, A any](t *testing.T, f *graphbolt.Follower[V, A], seq uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for f.AppliedSeq() < seq {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d waiting for %d (err: %v)", f.AppliedSeq(), seq, f.Err())
		}
		time.Sleep(time.Millisecond)
	}
}

// compareGenerations asserts follower snapshots match the leader's for
// every generation in the follower's retained window.
func compareGenerations[A any](t *testing.T, leader *graphbolt.Engine[float64, A], f *graphbolt.Follower[float64, A]) {
	t.Helper()
	oldest, newest := f.RetainedGenerations()
	if newest == 0 {
		t.Fatal("follower has no retained generations")
	}
	for g := oldest; g <= newest; g++ {
		ls, err := leader.SnapshotAt(g)
		if err != nil {
			t.Fatalf("leader SnapshotAt(%d): %v", g, err)
		}
		fs, err := f.SnapshotAt(g)
		if err != nil {
			t.Fatalf("follower SnapshotAt(%d): %v", g, err)
		}
		if ls.Graph.NumVertices() != fs.Graph.NumVertices() || ls.Graph.NumEdges() != fs.Graph.NumEdges() {
			t.Fatalf("gen %d: structure diverged: leader %d/%d, follower %d/%d", g,
				ls.Graph.NumVertices(), ls.Graph.NumEdges(), fs.Graph.NumVertices(), fs.Graph.NumEdges())
		}
		if len(ls.Values) != len(fs.Values) {
			t.Fatalf("gen %d: %d leader values, %d follower values", g, len(ls.Values), len(fs.Values))
		}
		for v := range ls.Values {
			if !difftest.Approx(ls.Values[v], fs.Values[v], 0, 1e-7) {
				t.Fatalf("gen %d vertex %d: leader %v, follower %v", g, v, ls.Values[v], fs.Values[v])
			}
		}
	}
}

// TestReplicaEndToEnd is the ISSUE's acceptance scenario: a durable
// leader server and a durable follower in one process, connected by the
// real HTTP replication stream. The follower is killed mid-stream and
// reopened from its own directory; the restarted follower must resume
// at exactly the sequence it last journaled (never skipping, never
// double-applying), every acked generation must match the leader's, and
// the graphbolt_replica_lag_generations gauge must return to 0 once the
// stream drains.
func TestReplicaEndToEnd(t *testing.T) {
	nBatches := 60
	if testing.Short() {
		nBatches = 24
	}
	strm := replicaStream(t, nBatches)
	engOpts := graphbolt.Options{MaxIterations: 6, Retain: nBatches + 1}

	// Leader: durable server (coalescing off: one journal record per
	// batch is what gives followers generation parity) feeding a
	// replication log, with the query API mounted beside the stream.
	leaderEng, err := graphbolt.NewEngine[float64, float64](strm.Base, graphbolt.NewPageRank(), engOpts)
	if err != nil {
		t.Fatal(err)
	}
	rlog := graphbolt.NewReplicationLog(graphbolt.ReplicationLogOptions{
		Heartbeat: 5 * time.Millisecond,
		Logger:    quietLogger(),
	})
	defer rlog.Close()
	d, err := graphbolt.OpenDurable(leaderEng, t.TempDir(), graphbolt.DurableOptions{OnRecord: rlog.Append})
	if err != nil {
		t.Fatal(err)
	}
	rlog.SetFloor(d.Recovery().SnapshotSeq)
	srv := graphbolt.NewDurableServer(d, graphbolt.ServerOptions{
		DisableCoalescing: true,
		Logger:            quietLogger(),
	})
	mux := http.NewServeMux()
	mux.Handle("GET /v1/wal", rlog.Handler())
	mux.Handle("/v1/", graphbolt.QueryHandler(srv))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	ctx := context.Background()
	submit := func(batches []graphbolt.Batch) {
		t.Helper()
		for i, b := range batches {
			if _, err := srv.Submit(ctx, b); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
		if _, err := srv.Sync(ctx); err != nil {
			t.Fatal(err)
		}
	}
	half := nBatches / 2
	submit(strm.Batches[:half])

	// Follower #1: durable, so its resume position survives the kill.
	followerDir := t.TempDir()
	feng1, err := graphbolt.NewEngine[float64, float64](strm.Base, graphbolt.NewPageRank(), engOpts)
	if err != nil {
		t.Fatal(err)
	}
	fd1, err := graphbolt.OpenDurable(feng1, followerDir, graphbolt.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg1 := obs.NewRegistry()
	f1, err := graphbolt.NewDurableFollower(fd1, ts.URL, graphbolt.FollowerOptions{
		Client:  ts.Client(),
		Metrics: reg1,
		Logger:  quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	f1.Start(ctx)
	waitApplied(t, f1, uint64(half))

	// Kill the follower mid-stream: stop the replay loop and close its
	// journal while the leader keeps going.
	if err := f1.Close(ctx); err != nil {
		t.Fatal(err)
	}
	stoppedAt := f1.AppliedSeq()
	if err := fd1.Close(); err != nil {
		t.Fatal(err)
	}
	submit(strm.Batches[half:])

	// Restart from the same directory: recovery must land exactly on the
	// sequence the dead follower last journaled — the seq-exact resume
	// the ISSUE demands.
	feng2, err := graphbolt.NewEngine[float64, float64](strm.Base, graphbolt.NewPageRank(), engOpts)
	if err != nil {
		t.Fatal(err)
	}
	fd2, err := graphbolt.OpenDurable(feng2, followerDir, graphbolt.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fd2.Close()
	if got := fd2.Seq(); got != stoppedAt {
		t.Fatalf("restarted follower recovered to seq %d, stopped at %d", got, stoppedAt)
	}
	reg2 := obs.NewRegistry()
	f2, err := graphbolt.NewDurableFollower(fd2, ts.URL, graphbolt.FollowerOptions{
		Client:  ts.Client(),
		Metrics: reg2,
		Logger:  quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	f2.Start(ctx)
	defer f2.Close(ctx)
	waitApplied(t, f2, uint64(nBatches))

	// Never skip, never double: the restarted follower applied exactly
	// the records the first one had not.
	if got, want := f2.Records(), uint64(nBatches)-stoppedAt; got != want {
		t.Fatalf("restarted follower applied %d records, want %d (resume overlap must be dropped)", got, want)
	}
	if got, want := f1.Records(), stoppedAt; got != want {
		t.Fatalf("first follower applied %d records, want %d", got, want)
	}

	// Every acked generation identical to the leader's.
	compareGenerations(t, leaderEng, f2)

	// The lag gauge returns to 0 after the drain.
	if lag := reg2.Snapshot().Gauges["graphbolt_replica_lag_generations"]; lag != 0 {
		t.Fatalf("graphbolt_replica_lag_generations = %v after drain, want 0", lag)
	}
	if f2.Lag() != 0 {
		t.Fatalf("Lag() = %d after drain, want 0", f2.Lag())
	}

	// The leader's query API answers over the same mux the stream uses.
	resp, err := ts.Client().Get(ts.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/snapshot: status %d", resp.StatusCode)
	}
	var meta struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	if want := uint64(nBatches) + 1; meta.Generation != want {
		t.Fatalf("/v1/snapshot generation %d, want %d", meta.Generation, want)
	}
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// errTorn is the fault injected into flaky stream connections.
var errTorn = errors.New("connection torn mid-frame")

// tornWriter cuts a streaming response after a byte budget, mid-frame,
// via a faultio.Writer. It preserves http.Flusher — a wrapper that
// swallowed Flush would serialize the whole stream into one buffered
// response and hide the tear.
type tornWriter struct {
	http.ResponseWriter
	fw *faultio.Writer
}

func (t *tornWriter) Write(p []byte) (int, error) { return t.fw.Write(p) }
func (t *tornWriter) Flush() {
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// flakyHandler wraps the replication stream with scripted faults: every
// 4th connection is refused outright (transient leader outage), every
// other connection is torn mid-frame after a byte budget that grows
// with the connection count — so the tear lands on a different frame
// each time, yet total throughput grows without bound and the follower
// is guaranteed to converge.
type flakyHandler struct {
	inner http.Handler
	mu    sync.Mutex
	conns int
}

func (fh *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	fh.mu.Lock()
	fh.conns++
	n := fh.conns
	fh.mu.Unlock()
	if n%4 == 2 {
		http.Error(w, "leader briefly down", http.StatusServiceUnavailable)
		return
	}
	fw := faultio.NewWriter(w).FailAfter(int64(64+128*n), errTorn)
	fh.inner.ServeHTTP(&tornWriter{ResponseWriter: w, fw: fw}, r)
}

// TestReplicaChaosStream replays the whole stream through a leader
// whose replication endpoint tears connections mid-frame and refuses
// every 4th connect. The follower must converge anyway — resuming by
// sequence number across every fault, applying each record exactly once
// — and end bit-for-bit caught up with the leader.
func TestReplicaChaosStream(t *testing.T) {
	nBatches := 40
	if testing.Short() {
		nBatches = 16
	}
	strm := replicaStream(t, nBatches)
	engOpts := graphbolt.Options{MaxIterations: 4, Retain: 8}

	leaderEng, err := graphbolt.NewEngine[float64, float64](strm.Base, graphbolt.NewPageRank(), engOpts)
	if err != nil {
		t.Fatal(err)
	}
	rlog := graphbolt.NewReplicationLog(graphbolt.ReplicationLogOptions{
		Heartbeat: 2 * time.Millisecond,
		Logger:    quietLogger(),
	})
	defer rlog.Close()
	d, err := graphbolt.OpenDurable(leaderEng, t.TempDir(), graphbolt.DurableOptions{OnRecord: rlog.Append})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	fh := &flakyHandler{inner: rlog.Handler()}
	ts := httptest.NewServer(fh)
	defer ts.Close()

	feng, err := graphbolt.NewEngine[float64, float64](strm.Base, graphbolt.NewPageRank(), engOpts)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	f, err := graphbolt.NewFollower(feng, nil, ts.URL, graphbolt.FollowerOptions{
		Client:  ts.Client(),
		Metrics: reg,
		Logger:  quietLogger(),
		Backoff: backoff.Policy{Base: time.Millisecond, Max: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	f.Start(ctx)
	defer f.Close(ctx)

	// Feed the leader while the follower fights the flaky stream.
	for i, b := range strm.Batches {
		if _, err := d.ApplyBatch(b); err != nil {
			t.Fatalf("leader batch %d: %v", i+1, err)
		}
	}
	waitApplied(t, f, uint64(nBatches))

	if f.Resumes() == 0 {
		t.Fatal("stream was never interrupted; the chaos handler is not wired")
	}
	if got := f.Records(); got != uint64(nBatches) {
		t.Fatalf("follower applied %d records, want %d (each exactly once, across %d resumes)",
			got, nBatches, f.Resumes())
	}
	if got, want := f.AppliedSeq(), d.Seq(); got != want {
		t.Fatalf("follower at seq %d, leader at %d", got, want)
	}
	compareGenerations(t, leaderEng, f)
	snap := reg.Snapshot()
	if lag := snap.Gauges["graphbolt_replica_lag_generations"]; lag != 0 {
		t.Fatalf("graphbolt_replica_lag_generations = %v after drain, want 0", lag)
	}
	if resumes := snap.Counters["graphbolt_replica_resumes_total"]; resumes == 0 {
		t.Fatal("graphbolt_replica_resumes_total = 0, want > 0")
	}
}
