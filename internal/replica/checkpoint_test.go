package replica

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/durable"
	"repro/internal/graph"
)

// leaderDurable opens a durable PageRank engine over the chain graph in
// a temp dir and applies n batches. It returns the engine and its
// directory.
func leaderDurable(t *testing.T, n int) (*durable.Engine[float64, float64], durable.CheckpointDir) {
	t.Helper()
	dir := t.TempDir()
	d, err := durable.Open(newTestEngine(t, 8), dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	for i := 0; i < n; i++ {
		b := graph.Batch{Add: []graph.Edge{{From: 0, To: graph.VertexID(i%6 + 1), Weight: float64(i + 1)}}}
		if _, err := d.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	return d, durable.CheckpointDir(dir)
}

// TestCheckpointHandler: 404 before any checkpoint, then a streamable
// framed checkpoint; non-GET is refused.
func TestCheckpointHandler(t *testing.T) {
	d, dir := leaderDurable(t, 3)
	ts := httptest.NewServer(CheckpointHandler(dir))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("before checkpoint: status %d, want 404", resp.StatusCode)
	}

	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	resp, err = ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if got, want := int64(len(body)), resp.ContentLength; got != want {
		t.Fatalf("body %d bytes, Content-Length says %d", got, want)
	}

	// The body must be installable: feed it to a fresh in-memory applier.
	eng := newTestEngine(t, 8)
	eng.Run()
	ap := NewEngineApplier(eng).(*engineApplier[float64, float64])
	seq, err := ap.InstallCheckpoint(readerOf(body))
	if err != nil {
		t.Fatalf("install shipped body: %v", err)
	}
	if seq != 3 || ap.Seq() != 3 {
		t.Fatalf("installed seq %d (applier at %d), want 3", seq, ap.Seq())
	}
	lead, foll := d.Snapshot(), eng.Snapshot()
	if foll.Generation != lead.Generation {
		t.Fatalf("generation %d after install, leader at %d", foll.Generation, lead.Generation)
	}
	for v, want := range lead.Values {
		if foll.Values[v] != want {
			t.Fatalf("vertex %d: %v after install, leader has %v", v, foll.Values[v], want)
		}
	}

	req, _ := http.NewRequest(http.MethodPost, ts.URL, nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST: status %d, want 405", resp.StatusCode)
	}
}

func readerOf(b []byte) io.Reader { return &sliceReader{b: b} }

type sliceReader struct{ b []byte }

func (r *sliceReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// TestCompactedResponseContract pins the 410 body shape: a compacted
// resume must name both the log floor and whether a checkpoint can
// bridge the gap (and through which sequence).
func TestCompactedResponseContract(t *testing.T) {
	get410 := func(t *testing.T, l *Log) CompactedResponse {
		t.Helper()
		ts := httptest.NewServer(l.Handler())
		defer ts.Close()
		resp, err := ts.Client().Get(ts.URL + "?from=3")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusGone {
			t.Fatalf("status %d, want 410", resp.StatusCode)
		}
		var body CompactedResponse
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("decode 410 body: %v", err)
		}
		return body
	}

	t.Run("with checkpoint", func(t *testing.T) {
		l := NewLog(LogOptions{CheckpointSeq: func() (uint64, bool) { return 42, true }})
		defer l.Close()
		l.SetFloor(10)
		body := get410(t, l)
		if body.Error != ErrLogCompacted.Error() {
			t.Errorf("error = %q", body.Error)
		}
		if body.Floor != 10 {
			t.Errorf("floor = %d, want 10", body.Floor)
		}
		if !body.CheckpointAvailable || body.CheckpointSeq != 42 {
			t.Errorf("checkpoint hint = (%v, %d), want (true, 42)", body.CheckpointAvailable, body.CheckpointSeq)
		}
	})
	t.Run("without checkpoint", func(t *testing.T) {
		l := NewLog(LogOptions{})
		defer l.Close()
		l.SetFloor(10)
		body := get410(t, l)
		if body.Floor != 10 {
			t.Errorf("floor = %d, want 10", body.Floor)
		}
		if body.CheckpointAvailable {
			t.Error("checkpoint_available = true with no checkpoint source")
		}
	})
}
