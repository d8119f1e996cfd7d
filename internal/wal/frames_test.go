package wal

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

func testBatch(i int) graph.Batch {
	return graph.Batch{
		Add: []graph.Edge{{From: graph.VertexID(i), To: graph.VertexID(i + 1), Weight: float64(i) + 0.5}},
		Del: []graph.Edge{{From: graph.VertexID(i + 2), To: graph.VertexID(i)}},
	}
}

// TestEncodeFrameMatchesAppend: the frames EncodeFrame produces are
// byte-identical to what Append writes, so a replication stream built
// from EncodeFrame is exactly the journal's on-disk record sequence.
func TestEncodeFrameMatchesAppend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.wal")
	w, err := Open(path, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	want.Write(fileMagic[:])
	for i := 0; i < 5; i++ {
		b := testBatch(i)
		if err := w.Append(uint64(i+1), b); err != nil {
			t.Fatal(err)
		}
		want.Write(EncodeFrame(uint64(i+1), b))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("file bytes diverge from EncodeFrame output (%d vs %d bytes)", len(got), want.Len())
	}
}

// TestFrameReaderRoundTrip: a concatenation of encoded frames decodes
// back to the same records, ending with a clean io.EOF.
func TestFrameReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := make([]Record, 0, 8)
	for i := 0; i < 8; i++ {
		rec := Record{Seq: uint64(i + 10), Batch: testBatch(i)}
		buf.Write(EncodeFrame(rec.Seq, rec.Batch))
		want = append(want, rec)
	}
	fr := NewFrameReader(&buf)
	for i, w := range want {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Seq != w.Seq || len(got.Batch.Add) != len(w.Batch.Add) || len(got.Batch.Del) != len(w.Batch.Del) {
			t.Fatalf("record %d = %+v, want %+v", i, got, w)
		}
		if got.Batch.Add[0] != w.Batch.Add[0] {
			t.Fatalf("record %d add = %+v, want %+v", i, got.Batch.Add[0], w.Batch.Add[0])
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// TestFrameReaderCorruption: torn headers, torn bodies, bit flips and
// implausible lengths all surface as ErrFrameCorrupt, never a panic or
// a silently wrong record.
func TestFrameReaderCorruption(t *testing.T) {
	frame := EncodeFrame(7, testBatch(1))
	cases := map[string][]byte{
		"torn header":  frame[:4],
		"torn body":    frame[:len(frame)-3],
		"bit flip":     append(append([]byte{}, frame[:12]...), frame[12]^0x40),
		"huge length":  {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},
		"tiny length":  {1, 0, 0, 0, 0, 0, 0, 0, 9},
		"bad checksum": func() []byte { f := append([]byte{}, frame...); f[5] ^= 0xff; return f }(),
	}
	for name, data := range cases {
		fr := NewFrameReader(bytes.NewReader(data))
		if _, err := fr.Next(); !errors.Is(err, ErrFrameCorrupt) {
			t.Errorf("%s: err = %v, want ErrFrameCorrupt", name, err)
		}
	}
}
