package replica

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/wal"
)

func rec(seq uint64) wal.Record {
	return wal.Record{Seq: seq, Batch: graph.Batch{
		Add: []graph.Edge{{From: graph.VertexID(seq), To: graph.VertexID(seq + 1), Weight: 1}},
	}}
}

// TestLogAppendSemantics: in-order appends accumulate; duplicates and
// gaps are dropped; retention trimming advances the floor.
func TestLogAppendSemantics(t *testing.T) {
	l := NewLog(LogOptions{Retain: 3})
	for seq := uint64(1); seq <= 5; seq++ {
		l.Append(rec(seq))
	}
	l.Append(rec(4)) // duplicate: ignored
	l.Append(rec(9)) // gap: dropped, not stored
	if got := l.Last(); got != 5 {
		t.Fatalf("Last = %d, want 5", got)
	}
	if got := l.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3 (retention)", got)
	}
	if got := l.Floor(); got != 2 {
		t.Fatalf("Floor = %d, want 2 (seqs 1-2 trimmed)", got)
	}
}

// TestLogSetFloor: a checkpoint-covered prefix declared via SetFloor is
// unavailable, and appends continue above it.
func TestLogSetFloor(t *testing.T) {
	l := NewLog(LogOptions{})
	l.SetFloor(10)
	l.Append(rec(11))
	l.Append(rec(12))
	if got := l.Floor(); got != 10 {
		t.Fatalf("Floor = %d, want 10", got)
	}
	if got, want := l.Last(), uint64(12); got != want {
		t.Fatalf("Last = %d, want %d", got, want)
	}
	if got := l.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
}

// drainStream reads messages from an open stream response until n
// records arrive or the context expires.
func drainStream(t *testing.T, body io.Reader, n int) []wal.Record {
	t.Helper()
	wr := newWireReader(body)
	if _, err := wr.hello(); err != nil {
		t.Fatalf("hello: %v", err)
	}
	var recs []wal.Record
	for len(recs) < n {
		msg, err := wr.next()
		if err != nil {
			t.Fatalf("next after %d records: %v", len(recs), err)
		}
		if msg.kind == kindRecord {
			recs = append(recs, msg.rec)
		}
	}
	return recs
}

// TestLogHandlerStreamsAndResumes: a client sees the backlog, then
// live appends; a second client resuming from seq N sees only N+1
// onward.
func TestLogHandlerStreamsAndResumes(t *testing.T) {
	l := NewLog(LogOptions{Heartbeat: 5 * time.Millisecond})
	defer l.Close()
	for seq := uint64(1); seq <= 3; seq++ {
		l.Append(rec(seq))
	}
	ts := httptest.NewServer(l.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		l.Append(rec(4))
		l.Append(rec(5))
	}()
	recs := drainStream(t, resp.Body, 5)
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d seq = %d, want %d", i, r.Seq, i+1)
		}
	}

	resp2, err := ts.Client().Get(ts.URL + "?from=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	recs2 := drainStream(t, resp2.Body, 2)
	if recs2[0].Seq != 4 || recs2[1].Seq != 5 {
		t.Fatalf("resume records = %d,%d, want 4,5", recs2[0].Seq, recs2[1].Seq)
	}
}

// TestLogHandlerHeartbeats: an idle stream carries heartbeats with the
// leader position instead of going silent.
func TestLogHandlerHeartbeats(t *testing.T) {
	l := NewLog(LogOptions{Heartbeat: 2 * time.Millisecond})
	defer l.Close()
	l.Append(rec(1))
	ts := httptest.NewServer(l.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "?from=1") // caught up: nothing to send
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	wr := newWireReader(resp.Body)
	if _, err := wr.hello(); err != nil {
		t.Fatal(err)
	}
	msg, err := wr.next()
	if err != nil {
		t.Fatal(err)
	}
	if msg.kind != kindHeartbeat || msg.leaderSeq != 1 {
		t.Fatalf("got kind %q leaderSeq %d, want heartbeat at 1", msg.kind, msg.leaderSeq)
	}
}

// stallingWriter is a ResponseWriter whose second Write, the first
// record after the hello, waits for release, as a slow client's socket
// does.
type stallingWriter struct {
	header  http.Header
	writes  int
	stalled chan struct{}
	release chan struct{}
}

func (w *stallingWriter) Header() http.Header { return w.header }
func (w *stallingWriter) WriteHeader(int)     {}
func (w *stallingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes == 2 {
		close(w.stalled)
		<-w.release
	}
	return len(p), nil
}

// TestLogHandlerEndsStreamOvertakenByCompaction: when retention trims
// the record a stream would send next while it is still writing, the
// stream ends, so that the client's resume gets 410 and re-seeds,
// instead of idling on heartbeats forever.
func TestLogHandlerEndsStreamOvertakenByCompaction(t *testing.T) {
	l := NewLog(LogOptions{Retain: 2, Heartbeat: time.Millisecond})
	defer l.Close()
	l.Append(rec(1))
	w := &stallingWriter{header: http.Header{}, stalled: make(chan struct{}), release: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/?from=0", nil))
	}()
	<-w.stalled // writing record 1
	for seq := uint64(2); seq <= 6; seq++ {
		l.Append(rec(seq)) // keeps 5 and 6: 2 to 4 are gone
	}
	close(w.release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream still open after retention trimmed its next record")
	}
}

// TestLogHandlerStatusCodes: resume below the floor is 410 with the
// compaction detail, malformed from is 400, non-GET is 405.
func TestLogHandlerStatusCodes(t *testing.T) {
	l := NewLog(LogOptions{})
	defer l.Close()
	l.SetFloor(10)
	l.Append(rec(11))
	ts := httptest.NewServer(l.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		method, url string
		want        int
	}{
		{http.MethodGet, "?from=3", http.StatusGone},
		{http.MethodGet, "?from=notanumber", http.StatusBadRequest},
		{http.MethodPost, "", http.StatusMethodNotAllowed},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.url, nil)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %q: status %d, want %d", tc.method, tc.url, resp.StatusCode, tc.want)
		}
	}
}

// TestFollowerTerminalOnCompaction: a follower whose resume position
// fell below the leader's floor — on a leader that serves no
// checkpoint to re-seed from — stops with ErrLogCompacted instead of
// retrying forever.
func TestFollowerTerminalOnCompaction(t *testing.T) {
	l := NewLog(LogOptions{})
	defer l.Close()
	l.SetFloor(10)
	mux := http.NewServeMux()
	mux.Handle("GET /v1/wal", l.Handler())
	ts := httptest.NewServer(mux)
	defer ts.Close()

	eng := newTestEngine(t, 4)
	f, err := NewFollower(eng, nil, ts.URL, FollowerOptions{Client: ts.Client()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = f.Run(ctx)
	if ctx.Err() != nil {
		t.Fatal("Run did not return before the deadline")
	}
	if !errors.Is(err, ErrLogCompacted) {
		t.Fatalf("Run = %v, want ErrLogCompacted", err)
	}
}
