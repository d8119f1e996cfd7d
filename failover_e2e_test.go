package graphbolt_test

import (
	"context"
	"encoding/binary"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	graphbolt "repro"
	"repro/internal/backoff"
	"repro/internal/core/difftest"
	"repro/internal/health"
	"repro/internal/obs"
)

// chaosProxy fronts the leader's mux with scripted faults, keyed by
// per-endpoint connection count so every run exercises the same
// schedule:
//
//   - /v1/wal: every 4th connection (n%4==2) accepts, writes a
//     plausible hello, then goes silent until the client hangs up — the
//     half-dead connection only the stall watchdog can detect; every
//     4th (n%4==3) is refused with 503 (a transient partition).
//   - /v1/checkpoint: every 3rd fetch (m%3==2) is refused with 503, so
//     re-seeds must survive transient checkpoint outages too.
//
// Everything else passes through untouched.
type chaosProxy struct {
	inner     http.Handler
	leaderSeq func() uint64 // for the fake hello on stalled connections
	mu        sync.Mutex
	walConns  int
	ckptConns int
}

func (cp *chaosProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/wal":
		cp.mu.Lock()
		cp.walConns++
		n := cp.walConns
		cp.mu.Unlock()
		switch n % 4 {
		case 3:
			http.Error(w, "leader partitioned", http.StatusServiceUnavailable)
			return
		case 2:
			// Silent stall: a valid hello, then nothing — no records, no
			// heartbeats. Without the watchdog the follower would sit on
			// this socket until the kernel's TCP timeout.
			hello := append([]byte("GBREP001"), make([]byte, 8)...)
			binary.LittleEndian.PutUint64(hello[8:], cp.leaderSeq())
			w.Header().Set("Content-Type", "application/octet-stream")
			w.WriteHeader(http.StatusOK)
			w.Write(hello)
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			<-r.Context().Done()
			return
		}
	case "/v1/checkpoint":
		cp.mu.Lock()
		cp.ckptConns++
		m := cp.ckptConns
		cp.mu.Unlock()
		if m%3 == 2 {
			http.Error(w, "checkpoint briefly unavailable", http.StatusServiceUnavailable)
			return
		}
	}
	cp.inner.ServeHTTP(w, r)
}

// compareAckedGenerations checks every generation the follower can
// still resolve against the leader's. A re-seeded follower's retained
// window may have a gap between its pre-seed history and the
// checkpoint's generation; those resolve as ErrGenerationNotRetained
// and are skipped — what matters is that everything it DOES serve is
// bit-for-bit the leader's, newest generation included.
func compareAckedGenerations[A any](t *testing.T, leader *graphbolt.Engine[float64, A], f *graphbolt.Follower[float64, A]) {
	t.Helper()
	oldest, newest := f.RetainedGenerations()
	if newest == 0 {
		t.Fatal("follower has no retained generations")
	}
	compared, newestCompared := 0, false
	for g := oldest; g <= newest; g++ {
		fs, err := f.SnapshotAt(g)
		if errors.Is(err, graphbolt.ErrGenerationNotRetained) {
			continue // evicted across a re-seed: a gap, not a divergence
		}
		if err != nil {
			t.Fatalf("follower SnapshotAt(%d): %v", g, err)
		}
		ls, err := leader.SnapshotAt(g)
		if err != nil {
			t.Fatalf("leader SnapshotAt(%d): %v", g, err)
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
		if g == newest {
			newestCompared = true
		}
		compared++
	}
	if compared == 0 || !newestCompared {
		t.Fatalf("compared %d generations (newest included: %v); the newest must be resolvable on both sides",
			compared, newestCompared)
	}
}

// TestFailoverCompactionChaos is the ISSUE's compaction-chaos scenario:
// a leader checkpointing aggressively (CheckpointEvery 3) over a
// replication log with tight retention (5 records), so any follower
// that blinks finds its resume position compacted away — while a chaos
// proxy partitions the stream, stalls connections silently, and refuses
// checkpoint fetches. The durable follower is killed and restarted
// across compaction windows three times. It must re-seed itself from
// shipped checkpoints (reseeds > 0), the stall watchdog must reclaim
// the silent connections (stalls > 0), and at the end the follower must
// be fully caught up (lag 0, seq == leader seq), Healthy, and
// generation-exact with the leader on every snapshot it serves.
func TestFailoverCompactionChaos(t *testing.T) {
	nBatches := 120
	if testing.Short() {
		nBatches = 40
	}
	strm := replicaStream(t, nBatches)
	engOpts := graphbolt.Options{MaxIterations: 4, Retain: nBatches + 1}

	// Leader: durable engine with automatic checkpoints every 3 batches
	// and a 5-record replication log. The invariant under test: the
	// newest checkpoint (within CheckpointEvery-1 of the head) always
	// sits above the log floor (head - Retain), so a compacted follower
	// can always bridge the gap — checkpoint, then stream.
	leaderEng, err := graphbolt.NewEngine[float64, float64](strm.Base, graphbolt.NewPageRank(), engOpts)
	if err != nil {
		t.Fatal(err)
	}
	var d *graphbolt.DurableEngine[float64, float64]
	rlog := graphbolt.NewReplicationLog(graphbolt.ReplicationLogOptions{
		Retain:    5,
		Heartbeat: 2 * time.Millisecond,
		Logger:    quietLogger(),
		CheckpointSeq: func() (uint64, bool) {
			if d == nil {
				return 0, false
			}
			return d.CheckpointSeq()
		},
	})
	defer rlog.Close()
	d, err = graphbolt.OpenDurable(leaderEng, t.TempDir(), graphbolt.DurableOptions{
		OnRecord:        rlog.Append,
		CheckpointEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rlog.SetFloor(d.Recovery().SnapshotSeq)

	mux := http.NewServeMux()
	mux.Handle("GET /v1/wal", rlog.Handler())
	mux.Handle("GET /v1/checkpoint", graphbolt.CheckpointHandler(d))
	chaos := &chaosProxy{inner: mux, leaderSeq: rlog.Last}
	ts := httptest.NewServer(chaos)
	defer ts.Close()

	// One registry and one health tracker span every follower
	// incarnation, the way a supervised process would wire them: the
	// counters accumulate across restarts.
	reg := obs.NewRegistry()
	tracker := health.NewTracker(reg)
	followerDir := t.TempDir()
	ctx := context.Background()

	start := func() (*graphbolt.Follower[float64, float64], *graphbolt.DurableEngine[float64, float64]) {
		t.Helper()
		feng, err := graphbolt.NewEngine[float64, float64](strm.Base, graphbolt.NewPageRank(), engOpts)
		if err != nil {
			t.Fatal(err)
		}
		fd, err := graphbolt.OpenDurable(feng, followerDir, graphbolt.DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		f, err := graphbolt.NewDurableFollower(fd, ts.URL, graphbolt.FollowerOptions{
			Client:       ts.Client(),
			Metrics:      reg,
			Logger:       quietLogger(),
			Health:       tracker,
			StallTimeout: 150 * time.Millisecond,
			Backoff:      backoff.Policy{Base: time.Millisecond, Max: 20 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		f.Start(ctx)
		return f, fd
	}

	apply := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if _, err := d.ApplyBatch(strm.Batches[i]); err != nil {
				t.Fatalf("leader batch %d: %v", i+1, err)
			}
		}
	}

	// Three kill/restart cycles. Each segment applied while the follower
	// is down moves the log floor well past its journaled position
	// (segment length >> Retain), so every restart must re-seed from a
	// shipped checkpoint — including the very first connection, which
	// starts from seq 0 against a log whose floor is already above it
	// (checkpoint-bootstrap of a fresh follower).
	seg := nBatches / 4
	var totalReseeds, totalStalls uint64
	f, fd := start()
	for cycle := 0; cycle < 3; cycle++ {
		apply(cycle*seg, (cycle+1)*seg)
		waitApplied(t, f, uint64((cycle+1)*seg))
		if err := f.Close(ctx); err != nil {
			t.Fatal(err)
		}
		totalReseeds += f.Reseeds()
		totalStalls += f.Stalls()
		if err := fd.Close(); err != nil {
			t.Fatal(err)
		}
		f, fd = start()
	}
	apply(3*seg, nBatches)
	waitApplied(t, f, uint64(nBatches))
	defer fd.Close()
	defer f.Close(ctx)

	if got, want := f.AppliedSeq(), d.Seq(); got != want {
		t.Fatalf("follower at seq %d, leader at %d", got, want)
	}
	if f.Lag() != 0 {
		t.Fatalf("Lag() = %d after drain, want 0", f.Lag())
	}
	// A re-seed can land exactly on the final sequence, in which case the
	// follower is caught up but still between connections (Degraded until
	// the next successful connect). Healthy must follow shortly — and
	// once it does, the caught-up follower sits on a live heartbeating
	// connection, so the fault counters are quiescent below.
	deadline := time.Now().Add(10 * time.Second)
	for tracker.State() != health.Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("final health %v, want Healthy (follower err: %v)", tracker.State(), f.Err())
		}
		time.Sleep(time.Millisecond)
	}
	totalReseeds += f.Reseeds()
	totalStalls += f.Stalls()

	if totalReseeds == 0 {
		t.Fatal("no checkpoint re-seeds happened; compaction chaos is not wired")
	}
	if totalStalls == 0 {
		t.Fatal("the stall watchdog never fired; the silent-connection script is not wired")
	}

	snap := reg.Snapshot()
	if got := snap.Counters["graphbolt_replica_reseeds_total"]; got != int64(totalReseeds) {
		t.Fatalf("graphbolt_replica_reseeds_total = %v, want %d", got, totalReseeds)
	}
	if got := snap.Counters["graphbolt_replica_stalls_total"]; got != int64(totalStalls) {
		t.Fatalf("graphbolt_replica_stalls_total = %v, want %d", got, totalStalls)
	}
	if lag := snap.Gauges["graphbolt_replica_lag_generations"]; lag != 0 {
		t.Fatalf("graphbolt_replica_lag_generations = %v after drain, want 0", lag)
	}
	if fetches, ok := snap.Histograms["graphbolt_replica_checkpoint_fetch_seconds"]; !ok || fetches.Count == 0 {
		t.Fatal("graphbolt_replica_checkpoint_fetch_seconds recorded nothing across re-seeds")
	}

	// Every snapshot the survivor serves is the leader's, generation for
	// generation.
	compareAckedGenerations(t, leaderEng, f)
}
