package core_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stream"
)

// TestGraphApplyPhase: every staged batch records one "graph_apply"
// phase under its trace, inside its "apply_batch" phase, so the flight
// recorder splits a stage into the mutation and the value update.
func TestGraphApplyPhase(t *testing.T) {
	const n = 400
	s, err := stream.FromEdges(n, gen.RMAT(17, n, 4000, gen.WeightUniform), stream.Config{
		LoadFraction: 0.5, BatchSize: 30, NumBatches: 6, DeleteFraction: 0.25, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.New(flight.Options{Depth: 1024})
	e, err := core.NewEngine[float64, float64](s.Base, algorithms.NewPageRank(),
		core.Options{MaxIterations: 8, Flight: rec})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	batches := append([]graph.Batch{{}}, s.Batches...) // an empty batch still applies
	for i, b := range batches {
		rec.BeginApply(uint64(i + 1))
		if _, err := e.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		rec.EndApply()
	}

	type spans struct{ graphApply, applyBatch []time.Duration }
	byTrace := map[uint64]*spans{}
	for _, ev := range rec.Snapshot() {
		if ev.Kind != flight.KindPhase || ev.Trace == 0 {
			continue
		}
		sp := byTrace[ev.Trace]
		if sp == nil {
			sp = &spans{}
			byTrace[ev.Trace] = sp
		}
		switch name, _, _ := strings.Cut(strings.TrimPrefix(ev.Note(), "name="), " "); name {
		case "graph_apply":
			sp.graphApply = append(sp.graphApply, time.Duration(ev.A))
		case "apply_batch":
			sp.applyBatch = append(sp.applyBatch, time.Duration(ev.A))
		}
	}
	for i := range batches {
		sp := byTrace[uint64(i+1)]
		if sp == nil || len(sp.graphApply) != 1 || len(sp.applyBatch) != 1 {
			t.Fatalf("batch %d: phases %+v, want one graph_apply and one apply_batch", i, sp)
		}
		if sp.graphApply[0] > sp.applyBatch[0] {
			t.Fatalf("batch %d: graph_apply %v longer than apply_batch %v", i, sp.graphApply[0], sp.applyBatch[0])
		}
	}
}
