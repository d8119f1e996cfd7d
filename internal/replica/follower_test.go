package replica

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/faultio"
	"repro/internal/graph"
	"repro/internal/health"
	"repro/internal/wal"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// chainBatch builds the i-th batch of the test stream, valid against
// the 8-vertex chain graph newTestEngine builds.
func chainBatch(i int) graph.Batch {
	return graph.Batch{Add: []graph.Edge{{From: 0, To: graph.VertexID(i%6 + 1), Weight: float64(i + 1)}}}
}

// leaderHarness wires a durable leader engine to a replication log and
// a mux serving /v1/wal and /v1/checkpoint — the full leader surface a
// self-healing follower talks to.
type leaderHarness struct {
	d   *durable.Engine[float64, float64]
	log *Log
	mux *http.ServeMux
}

func newLeaderHarness(t *testing.T, logOpts LogOptions) *leaderHarness {
	t.Helper()
	logOpts.Logger = discardLogger()
	h := &leaderHarness{log: NewLog(logOpts)}
	dir := durable.CheckpointDir(t.TempDir())
	d, err := durable.Open(newTestEngine(t, 8), string(dir), durable.Options{
		OnRecord: h.log.Append,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	t.Cleanup(h.log.Close)
	h.d = d
	h.log.SetFloor(d.Recovery().SnapshotSeq)
	if h.log.ckptSeq == nil {
		h.log.ckptSeq = dir.CheckpointSeq
	}
	h.mux = http.NewServeMux()
	h.mux.Handle("GET /v1/wal", h.log.Handler())
	h.mux.Handle("GET /v1/checkpoint", CheckpointHandler(dir))
	return h
}

func (h *leaderHarness) apply(t *testing.T, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if _, err := h.d.ApplyBatch(chainBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// requireParity fails unless the follower's snapshot is the leader's:
// same generation, same value at every vertex.
func requireParity(t *testing.T, lead, foll *core.ResultSnapshot[float64]) {
	t.Helper()
	if foll.Generation != lead.Generation {
		t.Fatalf("generation %d, leader at %d", foll.Generation, lead.Generation)
	}
	for v, want := range lead.Values {
		if foll.Values[v] != want {
			t.Fatalf("vertex %d: %v, leader has %v", v, foll.Values[v], want)
		}
	}
}

// TestFollowerReseedsAfterCompaction: a fresh follower connecting to a
// leader whose log floor is past seq 0 must fetch the checkpoint,
// install it, resume the stream from its sequence, and converge — with
// exact value and generation parity.
func TestFollowerReseedsAfterCompaction(t *testing.T) {
	// Retain 5: tight enough that a fresh follower (seq 0) is below the
	// floor and must re-seed, loose enough that the floor stays behind
	// the checkpoint (seq 6) while the post-reseed records stream — a
	// leader whose floor outruns its newest checkpoint strands followers
	// by design (that liveness pairing is CheckpointEvery's job, and the
	// failover e2e exercises it).
	h := newLeaderHarness(t, LogOptions{Retain: 5, Heartbeat: 5 * time.Millisecond})
	h.apply(t, 0, 6)
	if err := h.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if floor := h.log.Floor(); floor == 0 {
		t.Fatal("retention never trimmed; test needs a compacted log")
	}
	ts := httptest.NewServer(h.mux)
	defer ts.Close()

	eng := newTestEngine(t, 8)
	tr := health.NewTracker(nil)
	f, err := NewFollower(eng, nil, ts.URL, FollowerOptions{
		Client:  ts.Client(),
		Backoff: backoff.Policy{Base: time.Millisecond, Max: 10 * time.Millisecond},
		Logger:  discardLogger(),
		Health:  tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.Start(ctx)
	defer f.Close(context.Background())

	waitFor(t, "re-seed", func() bool { return f.Reseeds() >= 1 })
	h.apply(t, 6, 9) // stream past the checkpoint
	waitFor(t, "catch-up", func() bool { return f.AppliedSeq() == h.d.Seq() })

	if f.AppliedSeq() != 9 {
		t.Fatalf("applied %d, want 9", f.AppliedSeq())
	}
	if lag := f.Lag(); lag != 0 {
		t.Fatalf("lag %d after catch-up", lag)
	}
	requireParity(t, h.d.Snapshot(), f.Snapshot())
	waitFor(t, "healthy", func() bool { return tr.State() == health.Healthy })
}

// TestDurableFollowerHealsJournalFault: one failed fsync latches an
// ailment in the follower's durable engine, which then refuses every
// record. Nothing but Run can repair it, so Run must: the follower has
// to end Healthy, caught up and value-equal to the leader, with each
// record in its journal exactly once.
func TestDurableFollowerHealsJournalFault(t *testing.T) {
	const records = 8
	h := newLeaderHarness(t, LogOptions{Heartbeat: 5 * time.Millisecond})
	ts := httptest.NewServer(h.mux)
	defer ts.Close()

	// The 4th fsync fails, once. The hook runs on the WAL's fsync
	// goroutine; faultio.Fsync takes its own lock, so disarming from
	// inside it is race-free.
	fsync := faultio.NewFsync().FailEveryKth(4, nil)
	dir := t.TempDir()
	d, err := durable.Open(newTestEngine(t, 8), dir, durable.Options{
		WAL: wal.Options{Hooks: wal.Hooks{BeforeSync: func() error {
			err := fsync.Check()
			if err != nil {
				fsync.FailEveryKth(0, nil)
			}
			return err
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := health.NewTracker(nil)
	f, err := NewDurableFollower(d, ts.URL, FollowerOptions{
		Client:  ts.Client(),
		Backoff: backoff.Policy{Base: time.Millisecond, Max: 10 * time.Millisecond},
		Logger:  discardLogger(),
		Health:  tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start(context.Background())
	defer f.Close(context.Background())

	h.apply(t, 0, records)
	waitFor(t, "catch-up past the journal fault", func() bool { return f.AppliedSeq() == records })
	waitFor(t, "healthy", func() bool { return tr.State() == health.Healthy })
	if fsync.Failures() != 1 {
		t.Fatalf("%d fsync failures injected, want exactly 1", fsync.Failures())
	}
	requireParity(t, h.d.Snapshot(), f.Snapshot())

	if err := f.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	w, err := wal.Open(filepath.Join(dir, "graph.wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	journal := w.Recovered()
	if len(journal) != records {
		t.Fatalf("journal holds %d records, want %d", len(journal), records)
	}
	for i, rec := range journal {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("journal record %d has seq %d", i, rec.Seq)
		}
	}
}

// TestFollowerStallWatchdog: a connection that goes silent after the
// hello — no records, no heartbeats — must be dropped within the stall
// timeout and retried, and a later healthy connection must catch the
// follower up.
func TestFollowerStallWatchdog(t *testing.T) {
	h := newLeaderHarness(t, LogOptions{Heartbeat: 2 * time.Millisecond})
	h.apply(t, 0, 4)

	var conns atomic.Int64
	mux := http.NewServeMux()
	mux.Handle("GET /v1/wal", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if conns.Add(1) <= 2 {
			// Write a valid hello, then starve the stream: no heartbeats,
			// no records, connection held open.
			w.Header().Set("Content-Type", "application/octet-stream")
			w.WriteHeader(http.StatusOK)
			w.Write(appendHello(nil, 4))
			if fl, ok := w.(http.Flusher); ok {
				fl.Flush()
			}
			<-r.Context().Done()
			return
		}
		h.log.Handler().ServeHTTP(w, r)
	}))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	f, err := NewFollower(newTestEngine(t, 8), nil, ts.URL, FollowerOptions{
		Client:       ts.Client(),
		Backoff:      backoff.Policy{Base: time.Millisecond, Max: 5 * time.Millisecond},
		Logger:       discardLogger(),
		StallTimeout: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.Start(ctx)
	defer f.Close(context.Background())

	waitFor(t, "stall detections", func() bool { return f.Stalls() >= 2 })
	waitFor(t, "catch-up after stalls", func() bool { return f.AppliedSeq() == 4 })
	if f.Resumes() < 1 {
		t.Fatalf("resumes = %d after stalled connections", f.Resumes())
	}
}

// TestFollowerStallErrorShape: the watchdog's fault wraps
// ErrStreamStalled (not the context error the cancellation produced).
func TestFollowerStallErrorShape(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write(appendHello(nil, 1))
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		<-r.Context().Done()
	}))
	defer srv.Close()

	f, err := NewFollower(newTestEngine(t, 8), nil, srv.URL, FollowerOptions{
		Client:       srv.Client(),
		Logger:       discardLogger(),
		StallTimeout: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	_, serr := f.stream(context.Background())
	if !errors.Is(serr, ErrStreamStalled) {
		t.Fatalf("stream = %v, want ErrStreamStalled", serr)
	}
	if f.Stalls() != 1 {
		t.Fatalf("stalls = %d, want 1", f.Stalls())
	}
}

// TestFollowerBackoffResetsAfterProgress: the reconnect backoff must
// restart from the base delay once a connection ships records. The
// server closes the stream after every record, so a follower whose
// attempt counter kept growing would pay the (deliberately huge) later
// delays and miss the deadline by orders of magnitude.
func TestFollowerBackoffResetsAfterProgress(t *testing.T) {
	const records = 8
	frames := make([][]byte, records)
	for i := range frames {
		frames[i] = wal.EncodeFrame(uint64(i+1), chainBatch(i))
	}
	mux := http.NewServeMux()
	mux.Handle("GET /v1/wal", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		from := r.URL.Query().Get("from")
		var next int
		for i := 0; i < records; i++ {
			if from == "" || from == itoa(i) {
				next = i
				break
			}
		}
		w.WriteHeader(http.StatusOK)
		out := appendHello(nil, records)
		if next < records {
			out = appendRecord(out, frames[next])
		}
		w.Write(out)
		// Return: the connection closes after at most one record, forcing
		// a reconnect per record.
	}))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// Base 1ms but a punitive growth curve: attempt 1 is already 1s.
	// Only a follower that resets to attempt 0 after each shipped record
	// can apply 8 records in a few hundred milliseconds.
	f, err := NewFollower(newTestEngine(t, 8), nil, ts.URL, FollowerOptions{
		Client:  ts.Client(),
		Backoff: backoff.Policy{Base: time.Millisecond, Factor: 1000, Max: 5 * time.Second, Jitter: 0},
		Logger:  discardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.Start(ctx)
	defer f.Close(context.Background())

	deadline := time.Now().Add(3 * time.Second)
	for f.AppliedSeq() < records {
		if time.Now().After(deadline) {
			t.Fatalf("applied %d/%d records in 3s — backoff did not reset on progress", f.AppliedSeq(), records)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for ; i > 0; i /= 10 {
		b = append([]byte{byte('0' + i%10)}, b...)
	}
	return string(b)
}

// TestLogFloorAppendRace hammers the log's floor/append/trim paths from
// concurrent goroutines — the shapes the leader actually runs (apply
// loop appending, recovery SetFloor, HTTP streamers snapshotting) —
// and checks the invariants survive. Run under -race.
func TestLogFloorAppendRace(t *testing.T) {
	l := NewLog(LogOptions{Retain: 8, Logger: discardLogger()})
	defer l.Close()
	const total = 4000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := uint64(1); seq <= total; seq++ {
			l.Append(rec(seq))
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			l.SetFloor(uint64(i * 2))
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			floor, last := l.Floor(), l.Last()
			if floor > last {
				panic("floor above last")
			}
			if n := l.Len(); n > 8 {
				panic("retention exceeded")
			}
			l.snapshotFrom(last)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			from := l.Floor()
			frames, _, _, _ := l.snapshotFrom(from)
			// Frames visible above the floor must be contiguous from it.
			for i := range frames {
				r, err := wal.NewFrameReader(bytes.NewReader(frames[i])).Next()
				if err != nil {
					panic(err)
				}
				if r.Seq != from+uint64(i)+1 {
					panic("gap in snapshotFrom window")
				}
			}
		}
	}()
	// Wait for the writers, then stop the readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitFor(t, "writers", func() bool {
		return l.Last() >= total
	})
	close(stop)
	<-done

	if floor, last := l.Floor(), l.Last(); floor > last {
		t.Fatalf("floor %d above last %d", floor, last)
	}
	if n := l.Len(); n > 8 {
		t.Fatalf("Len = %d, retention is 8", n)
	}
}
