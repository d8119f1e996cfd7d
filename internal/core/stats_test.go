package core_test

import (
	"reflect"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// TestStatsAddCoversEveryField sets every field of a Stats to a nonzero
// value, adds it into a zero Stats, and requires every field of the
// result to be nonzero. Adding a field to Stats without teaching
// Stats.Add about it fails here, not silently in aggregated totals.
func TestStatsAddCoversEveryField(t *testing.T) {
	var other core.Stats
	ov := reflect.ValueOf(&other).Elem()
	for i := 0; i < ov.NumField(); i++ {
		f := ov.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		default:
			t.Fatalf("Stats field %s has kind %s; extend this test to set it",
				ov.Type().Field(i).Name, f.Kind())
		}
	}

	var sum core.Stats
	sum.Add(other)
	sv := reflect.ValueOf(sum)
	for i := 0; i < sv.NumField(); i++ {
		if sv.Field(i).IsZero() {
			t.Errorf("Stats.Add dropped field %s: still zero after adding a nonzero value",
				sv.Type().Field(i).Name)
		}
	}
}

// TestStatsAddTable pins the accumulation rule per field with explicit
// cases: work counters and Duration sum; TrackedSnapshotBytes is a
// gauge where the most recent non-zero observation wins.
func TestStatsAddTable(t *testing.T) {
	tests := []struct {
		name string
		acc  core.Stats
		add  []core.Stats
		want core.Stats
	}{
		{
			name: "work fields and duration sum",
			acc: core.Stats{
				Iterations: 1, EdgeComputations: 10, VertexComputations: 100,
				RefineIterations: 2, HybridIterations: 1, Duration: 1e9,
			},
			add: []core.Stats{{
				Iterations: 2, EdgeComputations: 20, VertexComputations: 200,
				RefineIterations: 3, HybridIterations: 2, Duration: 2e9,
			}},
			want: core.Stats{
				Iterations: 3, EdgeComputations: 30, VertexComputations: 300,
				RefineIterations: 5, HybridIterations: 3, Duration: 3e9,
			},
		},
		{
			name: "tracked bytes gauge takes the latest non-zero reading",
			acc:  core.Stats{TrackedSnapshotBytes: 512},
			add:  []core.Stats{{TrackedSnapshotBytes: 2048}, {TrackedSnapshotBytes: 1024}},
			want: core.Stats{TrackedSnapshotBytes: 1024},
		},
		{
			name: "zero gauge observation keeps the previous reading",
			acc:  core.Stats{TrackedSnapshotBytes: 512},
			add:  []core.Stats{{Iterations: 1}},
			want: core.Stats{Iterations: 1, TrackedSnapshotBytes: 512},
		},
		{
			name: "adding the zero value is a no-op",
			acc:  core.Stats{Iterations: 4, EdgeComputations: 9, TrackedSnapshotBytes: 33, Duration: 7},
			add:  []core.Stats{{}},
			want: core.Stats{Iterations: 4, EdgeComputations: 9, TrackedSnapshotBytes: 33, Duration: 7},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.acc
			for _, s := range tc.add {
				got.Add(s)
			}
			if got != tc.want {
				t.Errorf("accumulated %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestStatsAddGaugeSemantics(t *testing.T) {
	var sum core.Stats
	sum.Add(core.Stats{TrackedSnapshotBytes: 100})
	sum.Add(core.Stats{TrackedSnapshotBytes: 40})
	if sum.TrackedSnapshotBytes != 40 {
		t.Fatalf("TrackedSnapshotBytes = %d, want the latest observation 40", sum.TrackedSnapshotBytes)
	}
	sum.Add(core.Stats{}) // a call that did not sample the gauge
	if sum.TrackedSnapshotBytes != 40 {
		t.Fatalf("TrackedSnapshotBytes = %d after zero observation, want 40 retained", sum.TrackedSnapshotBytes)
	}
}

func TestParseModeRoundTrips(t *testing.T) {
	modes := []core.Mode{core.ModeGraphBolt, core.ModeGraphBoltRP, core.ModeReset, core.ModeLigra, core.ModeNaive}
	for _, m := range modes {
		got, err := core.ParseMode(m.String())
		if err != nil {
			t.Fatalf("ParseMode(%q): %v", m.String(), err)
		}
		if got != m {
			t.Fatalf("ParseMode(%q) = %v, want %v", m.String(), got, m)
		}
	}
	for in, want := range map[string]core.Mode{
		"graphbolt": core.ModeGraphBolt,
		"GRAPHBOLT": core.ModeGraphBolt,
		"rp":        core.ModeGraphBoltRP,
		"reset":     core.ModeReset,
	} {
		got, err := core.ParseMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := core.ParseMode("definitely-not-a-mode"); err == nil {
		t.Fatal("ParseMode accepted an unknown mode")
	}
	if (core.Mode(99)).String() != "Unknown" {
		t.Fatalf("Mode(99).String() = %q", core.Mode(99).String())
	}
}

// TestEngineMetrics runs an instrumented engine through an initial run
// and a mutation batch and checks the registry reflects the work:
// refine-vs-hybrid split, tracked-snapshot gauges, duration histograms.
func TestEngineMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	g := graph.MustBuild(4, []graph.Edge{
		{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 1},
		{From: 2, To: 3, Weight: 1}, {From: 3, To: 0, Weight: 1},
	})
	// Horizon < MaxIterations forces the hybrid continuation (§4.2) so
	// the hybrid counters must move.
	e, err := core.NewEngine[float64, float64](g, algorithms.NewPageRank(),
		core.Options{MaxIterations: 8, Horizon: 4, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if _, err := e.ApplyBatch(graph.Batch{Add: []graph.Edge{{From: 0, To: 2, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	wantPositive := []string{
		"graphbolt_engine_runs_total",
		"graphbolt_engine_batches_total",
		"graphbolt_engine_iterations_total",
		"graphbolt_engine_refine_iterations_total",
		"graphbolt_engine_hybrid_iterations_total",
		"graphbolt_engine_initial_edge_computations_total",
		"graphbolt_engine_refine_edge_computations_total",
		"graphbolt_engine_hybrid_edge_computations_total",
		"graphbolt_engine_edge_computations_total",
		"graphbolt_engine_vertex_computations_total",
		"graphbolt_engine_hybrid_switches_total",
	}
	for _, name := range wantPositive {
		if v, ok := snap.Counters[name]; !ok || v <= 0 {
			t.Errorf("counter %s = %d (present %v), want > 0", name, v, ok)
		}
	}
	if v := snap.Gauges["graphbolt_engine_tracked_snapshots"]; v <= 0 {
		t.Errorf("tracked_snapshots gauge = %v, want > 0", v)
	}
	if v := snap.Gauges["graphbolt_engine_tracked_snapshot_bytes"]; v <= 0 {
		t.Errorf("tracked_snapshot_bytes gauge = %v, want > 0", v)
	}
	if h, ok := snap.Histograms["graphbolt_engine_run_duration_seconds"]; !ok || h.Count != 1 {
		t.Errorf("run_duration histogram count = %d (present %v), want 1", h.Count, ok)
	}
	if h, ok := snap.Histograms["graphbolt_engine_batch_duration_seconds"]; !ok || h.Count != 1 {
		t.Errorf("batch_duration histogram count = %d (present %v), want 1", h.Count, ok)
	}

	// The engine's own Stats must agree with the hybrid split.
	st := e.TotalStats()
	if st.HybridIterations <= 0 {
		t.Errorf("TotalStats.HybridIterations = %d, want > 0 with Horizon < MaxIterations", st.HybridIterations)
	}
	if st.TrackedSnapshotBytes <= 0 {
		t.Errorf("TotalStats.TrackedSnapshotBytes = %d, want > 0", st.TrackedSnapshotBytes)
	}
}

// TestDefaultMetricsRegistry checks that there is no default registry:
// an engine reports only into its own Options.Metrics, and an engine
// built without one leaves every other engine's registry untouched.
func TestDefaultMetricsRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	g := graph.MustBuild(2, []graph.Edge{{From: 0, To: 1, Weight: 1}})
	e, err := core.NewEngine[float64, float64](g, algorithms.NewPageRank(), core.Options{MaxIterations: 3, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if v := reg.Snapshot().Counters["graphbolt_engine_runs_total"]; v != 1 {
		t.Fatalf("runs_total in the engine's registry = %d, want 1", v)
	}

	before := reg.Snapshot()
	e2, err := core.NewEngine[float64, float64](g, algorithms.NewPageRank(), core.Options{MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	e2.Run()
	if after := reg.Snapshot(); !reflect.DeepEqual(after, before) {
		t.Fatalf("registry changed while an engine without Metrics ran:\n before %+v\n after  %+v", before, after)
	}
}
