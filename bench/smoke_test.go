package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// tiny shrinks a workload to a graph of a few thousand edges and
// millisecond periods, keeping its wiring (durable, replicated, cache,
// read mix) so the smoke run exercises the same calls into
// the facade and the internal packages as the real one.
func tiny(sp spec) spec {
	sp.Vertices, sp.Edges, sp.BatchEdges = 512, 8000, 20
	sp.WritePeriod, sp.BurstReads = 10*time.Millisecond, 3
	sp.DrainBatches = 1700 // at the reference window; 25 at half a second
	return sp
}

// TestSmoke runs every workload for half a second, traced (which also
// runs every layer probe) and one of them untraced, and checks that the
// correctness gate passes and every metric BENCHMARK.json names is
// reported with its unit. It asserts no timing.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, sp := range specs {
		t.Run(sp.Name, func(t *testing.T) {
			out := t.TempDir()
			res, err := runWorkload(runConfig{sp: tiny(sp), seed: 7, seconds: 0.5, traced: true, outDir: out})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct = %v (%s), %d of %d operations failed, first read error: %v",
					res.Correct, res.Failure, res.Failed, res.Attempted, res.Facts["first_read_error"])
			}
			for _, p := range b.PerLayer {
				if m, ok := res.Metrics[p.Name]; !ok {
					t.Errorf("per-layer metric %s not reported", p.Name)
				} else if m.Unit != p.Unit {
					t.Errorf("%s reported in %q, BENCHMARK.json says %q", p.Name, m.Unit, p.Unit)
				}
			}
			if _, err := os.Stat(filepath.Join(out, "trace-"+sp.Name+".json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
			left, err := os.ReadDir(out)
			if err != nil {
				t.Fatal(err)
			}
			if len(left) != 1 {
				t.Errorf("%d entries left in the output directory, want only the trace file", len(left))
			}
		})
	}
	t.Run("untraced", func(t *testing.T) {
		sp, err := findSpec("replicated")
		if err != nil {
			t.Fatal(err)
		}
		res, err := runWorkload(runConfig{sp: tiny(sp), seed: 8, seconds: 0.5, outDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("correct = %v (%s), %d of %d operations failed", res.Correct, res.Failure, res.Failed, res.Attempted)
		}
		for _, d := range b.EndToEnd {
			if m, ok := res.Metrics[d.Name]; !ok || m.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, want a positive value", d.Name, m.Value)
			} else if m.Unit != d.Unit {
				t.Errorf("%s reported in %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
			}
		}
	})
}
