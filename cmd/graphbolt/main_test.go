package main

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	graphbolt "repro"
	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/faultio"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stream"
	"repro/internal/wal"
)

// The -validate distance: equal values (same-sign infinities included)
// agree, and a NaN or a mismatched infinity is maximal disagreement,
// in both the scalar and the per-vertex vector shape.
func TestMaxAbsDiff(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name string
		a, b []float64
		want float64
	}{
		{"equal", []float64{1, 2.5}, []float64{1, 2.5}, 0},
		{"finite gap", []float64{1, 2}, []float64{1.5, 2}, 0.5},
		{"both +Inf", []float64{inf, 1}, []float64{inf, 1}, 0},
		{"both -Inf", []float64{-inf}, []float64{-inf}, 0},
		{"+Inf vs -Inf", []float64{inf}, []float64{-inf}, inf},
		{"+Inf vs finite", []float64{inf}, []float64{3}, inf},
		{"NaN vs finite", []float64{nan, 1}, []float64{1, 1}, inf},
		{"finite vs NaN", []float64{1}, []float64{nan}, inf},
		{"NaN vs NaN", []float64{nan}, []float64{nan}, inf},
		{"NaN vs +Inf", []float64{nan}, []float64{inf}, inf},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := maxAbsDiffScalar(tc.a, tc.b); got != tc.want {
				t.Errorf("scalar: got %v, want %v", got, tc.want)
			}
			// The same values as one feature row among agreeing rows.
			a := [][]float64{{0, 0}, tc.a, {7}}
			b := [][]float64{{0, 0}, tc.b, {7}}
			if got := maxAbsDiffVector(a, b); got != tc.want {
				t.Errorf("vector: got %v, want %v", got, tc.want)
			}
		})
	}
}

// workload writes a small RMAT base graph and its mutation stream (12
// batches) in graphgen's formats and returns their paths.
func workload(t *testing.T) (graphPath, streamPath string) {
	t.Helper()
	s, err := stream.FromEdges(300, gen.RMAT(1, 300, 2400, gen.WeightUniform), stream.Config{BatchSize: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	graphPath, streamPath = filepath.Join(dir, "g.el"), filepath.Join(dir, "s.el")
	var gb, sb bytes.Buffer
	if err := graph.WriteEdgeList(&gb, s.Base); err != nil {
		t.Fatal(err)
	}
	if err := stream.WriteBatches(&sb, s.Batches); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(graphPath, gb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(streamPath, sb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return graphPath, streamPath
}

// runCLI runs the command in-process and returns its stdout and error;
// the progress log is attached to the test output on failure.
func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	if t.Failed() || err != nil {
		t.Logf("graphbolt %s\nstderr:\n%s", strings.Join(args, " "), stderr.String())
	}
	return stdout.String(), err
}

// TestRunValidatesEveryAlgorithm runs the command end to end on every
// engine algorithm, in memory and journaled, and requires -validate to
// pass: the published values after the stream equal a from-scratch run
// on the published graph.
func TestRunValidatesEveryAlgorithm(t *testing.T) {
	g, s := workload(t)
	for _, algo := range slices.Sorted(maps.Keys(table)) {
		for _, durable := range []bool{false, true} {
			name := algo
			args := []string{"-graph", g, "-stream", s, "-algo", algo, "-validate"}
			if durable {
				name += "/wal"
				args = append(args, "-wal-dir", t.TempDir())
			}
			t.Run(name, func(t *testing.T) {
				out, err := runCLI(t, args...)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				var worst float64
				i := strings.Index(out, "validation:")
				if i < 0 {
					t.Fatalf("no validation line in:\n%s", out)
				}
				if _, err := fmt.Sscanf(out[i:], "validation: max |streamed - scratch| = %g", &worst); err != nil {
					t.Fatalf("parse %q: %v", out[i:], err)
				}
				if worst > 1e-6 {
					t.Fatalf("max divergence %g > 1e-6", worst)
				}
			})
		}
	}

	t.Run("shards", func(t *testing.T) {
		out, err := runCLI(t, "-graph", g, "-stream", s, "-shards", "2", "-readers", "2")
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if !strings.Contains(out, "top 5 by rank:\n  vertex ") {
			t.Fatalf("no top-k block in:\n%s", out)
		}
	})
	t.Run("triangles", func(t *testing.T) {
		out, err := runCLI(t, "-graph", g, "-stream", s, "-algo", "triangles")
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if !strings.Contains(out, " closes ") {
			t.Fatalf("no triangle report in:\n%s", out)
		}
	})
	for name, args := range map[string][]string{
		"triangles with -wal-dir": {"-algo", "triangles", "-wal-dir", t.TempDir()},
		"follow with -stream":     {"-follow", "http://127.0.0.1:1", "-stream", s},
		"shards with -wal-dir":    {"-shards", "2", "-wal-dir", t.TempDir()},
	} {
		t.Run("refuses "+name, func(t *testing.T) {
			if _, err := runCLI(t, append([]string{"-graph", g}, args...)...); err == nil {
				t.Fatal("run accepted the combination")
			}
		})
	}
}

// TestSubmitAllRetriesWhileDegraded streams 40 batches into a durable
// server whose every 7th fsync fails. Each failure puts the server into
// degraded mode, where Submit refuses writes with ErrDegraded until the
// journal is repaired; the producer must wait it out and resubmit, so
// every batch lands exactly once: one generation and one journal record
// per batch.
func TestSubmitAllRetriesWhileDegraded(t *testing.T) {
	const nBatches = 40
	s, err := stream.FromEdges(256, gen.RMAT(42, 256, 6000, gen.WeightUniform),
		stream.Config{BatchSize: 12, NumBatches: nBatches, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Batches) != nBatches {
		t.Fatalf("stream yielded %d batches, want %d", len(s.Batches), nBatches)
	}
	eng, err := core.NewEngine[float64, float64](s.Base, algorithms.NewPageRank(), core.Options{MaxIterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	fsync := faultio.NewFsync()
	d, err := durable.Open(eng, t.TempDir(), durable.Options{
		WAL: wal.Options{Sync: wal.SyncEveryBatch, Hooks: wal.Hooks{BeforeSync: fsync.Check}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A one-slot queue keeps the producer waiting on the apply loop, so
	// it is still submitting when the faults fire.
	srv := graphbolt.NewDurableServer(d, graphbolt.ServerOptions{
		QueueDepth:        1,
		DisableCoalescing: true,
		Logger:            slog.New(slog.DiscardHandler),
	})
	gen0 := srv.Generation()
	fsync.FailEveryKth(7, nil)

	ctx := context.Background()
	if err := submitAll(ctx, srv, s.Batches); err != nil {
		t.Fatalf("submitAll: %v", err)
	}
	if _, err := srv.Sync(ctx); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if fsync.Failures() == 0 {
		t.Fatal("no fsync fault fired")
	}
	if got := srv.Generation(); got != gen0+nBatches {
		t.Errorf("Generation() = %d, want %d", got, gen0+nBatches)
	}
	if got := d.Seq(); got != nBatches {
		t.Errorf("journal Seq() = %d, want %d", got, nBatches)
	}
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
