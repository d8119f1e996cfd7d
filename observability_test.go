package graphbolt_test

import (
	"context"
	"io"
	"log/slog"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	graphbolt "repro"
	"repro/internal/obs"
)

// TestFacadeMetrics: instrumentation goes only where each instance's
// options point. Two engine+server pairs report into two registries,
// and each registry sees exactly its own runs, batches and submits. A
// third pair built with Metrics: nil moves neither registry and adds no
// series to either.
func TestFacadeMetrics(t *testing.T) {
	g, err := graphbolt.BuildGraph(3, []graphbolt.Edge{
		{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 1}, {From: 2, To: 0, Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// serve runs one engine behind one server, both reporting into reg,
	// and submits n single-edge batches through it.
	serve := func(reg *graphbolt.MetricsRegistry, n int) {
		t.Helper()
		eng, err := graphbolt.NewEngine[float64, float64](g, graphbolt.NewPageRank(),
			graphbolt.Options{MaxIterations: 4, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		srv := graphbolt.NewServer(eng, graphbolt.ServerOptions{
			DisableCoalescing: true, Metrics: reg, Logger: slog.New(slog.DiscardHandler),
		})
		defer srv.Close(ctx)
		for i := range n {
			b := graphbolt.Batch{Add: []graphbolt.Edge{{From: graphbolt.VertexID(i % 3), To: graphbolt.VertexID((i + 2) % 3), Weight: 1}}}
			if _, err := srv.SubmitWait(ctx, b); err != nil {
				t.Fatal(err)
			}
		}
	}

	regs := []*graphbolt.MetricsRegistry{graphbolt.NewMetricsRegistry(), graphbolt.NewMetricsRegistry()}
	for i, reg := range regs {
		serve(reg, i+2)
	}
	for i, reg := range regs {
		c := reg.Snapshot().Counters
		want := int64(i + 2)
		for name, got := range map[string]int64{
			"graphbolt_engine_runs_total":             1,
			"graphbolt_engine_batches_total":          want,
			"graphbolt_serve_submitted_batches_total": want,
			"graphbolt_serve_applied_batches_total":   want,
		} {
			if c[name] != got {
				t.Errorf("registry %d: %s = %d, want %d", i, name, c[name], got)
			}
		}
	}

	before := []obs.Snapshot{regs[0].Snapshot(), regs[1].Snapshot()}
	serve(nil, 3)
	for i, reg := range regs {
		if after := reg.Snapshot(); !reflect.DeepEqual(after, before[i]) {
			t.Errorf("registry %d changed while an uninstrumented instance ran:\n before %+v\n after  %+v", i, before[i], after)
		}
	}

	// The handler serves the registry it was given, and only that one.
	srv := httptest.NewServer(graphbolt.MetricsHandler(regs[1]))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"graphbolt_engine_runs_total 1\n",
		"graphbolt_engine_batches_total 3\n",
		"graphbolt_serve_queue_wait_seconds_bucket",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
