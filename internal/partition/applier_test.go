package partition

import (
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/core/difftest"
	"repro/internal/durable"
	"repro/internal/faultio"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wal"
)

const fixtureIters = 5

// twoShardFixture builds a 16-vertex graph explicitly partitioned so
// vertices 0..7 belong to shard 0 and 8..15 to shard 1, with a few
// in-shard base edges on each side, and one fresh engine per shard.
func twoShardFixture(t *testing.T) (*Partitioner, []*core.Engine[float64, float64], *graph.Graph) {
	t.Helper()
	assign := make(map[graph.VertexID]int)
	for v := 0; v < 16; v++ {
		assign[graph.VertexID(v)] = v / 8
	}
	pt := mustNew(t, 2, assign)
	g, err := graph.Build(16, []graph.Edge{
		{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 1}, {From: 2, To: 0, Weight: 1},
		{From: 8, To: 9, Weight: 1}, {From: 9, To: 10, Weight: 1}, {From: 10, To: 8, Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := pt.SplitGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*core.Engine[float64, float64], 2)
	for s, sg := range parts {
		engines[s], err = core.NewEngine[float64, float64](sg, algorithms.NewPageRank(), core.Options{MaxIterations: fixtureIters})
		if err != nil {
			t.Fatal(err)
		}
	}
	return pt, engines, g
}

// checkAgainstScratch compares a merged snapshot with a from-scratch
// run over base plus the given batches.
func checkAgainstScratch(t *testing.T, snap *core.ResultSnapshot[float64], base *graph.Graph, batches ...graph.Batch) {
	t.Helper()
	g := base
	for _, b := range batches {
		g, _ = g.Apply(b)
	}
	if snap.Graph.NumEdges() != g.NumEdges() || snap.Graph.NumVertices() != g.NumVertices() {
		t.Fatalf("merged graph %d vertices / %d edges, want %d / %d",
			snap.Graph.NumVertices(), snap.Graph.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	fresh, err := core.NewEngine[float64, float64](g, algorithms.NewPageRank(),
		core.Options{Mode: core.ModeReset, MaxIterations: fixtureIters})
	if err != nil {
		t.Fatal(err)
	}
	fresh.Run()
	want := fresh.Values()
	if len(snap.Values) != len(want) {
		t.Fatalf("%d merged values, %d from scratch", len(snap.Values), len(want))
	}
	for v := range want {
		if !difftest.Approx(snap.Values[v], want[v], 0, 1e-9) {
			t.Fatalf("vertex %d: merged %v, from scratch %v", v, snap.Values[v], want[v])
		}
	}
}

// Splitting a batch over the shards and joining them publishes exactly
// one merged generation per apply whose graph and values equal a
// from-scratch run, and the cross/single counters classify each batch
// by how many shards it touched.
func TestApplierSplitJoinExactness(t *testing.T) {
	pt, engines, base := twoShardFixture(t)
	reg := obs.NewRegistry()
	a, err := NewApplier(pt, engines, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	gen0 := a.View().Snapshot().Generation
	checkAgainstScratch(t, a.View().Snapshot(), base)

	batches := []graph.Batch{
		// Spans both shards: 3→4 is shard 0's, 11→12 shard 1's.
		{Add: []graph.Edge{{From: 3, To: 4, Weight: 1}, {From: 11, To: 12, Weight: 2}},
			Del: []graph.Edge{{From: 2, To: 0}}},
		// Shard 1 only.
		{Add: []graph.Edge{{From: 12, To: 8, Weight: 1}}},
		// Empty: touches no shard, still a generation.
		{},
	}
	for i, b := range batches {
		if _, err := a.ApplyBatch(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		snap := a.View().Snapshot()
		if want := gen0 + uint64(i) + 1; snap.Generation != want {
			t.Fatalf("batch %d: generation %d, want %d", i, snap.Generation, want)
		}
		checkAgainstScratch(t, snap, base, batches[:i+1]...)
	}
	for s, want := range []uint64{1, 2} {
		if got, ail := a.ShardStatus(s); got != want || ail != nil {
			t.Fatalf("shard %d: applied %d (ailment %v), want %d", s, got, ail, want)
		}
	}
	m := reg.Snapshot()
	if c, s := m.Counters["graphbolt_shard_cross_batches_total"], m.Counters["graphbolt_shard_single_batches_total"]; c != 1 || s != 2 {
		t.Fatalf("cross/single counters = %d/%d, want 1/2", c, s)
	}
	if g := m.Gauges["graphbolt_shard_merged_generation"]; g != float64(gen0+3) {
		t.Fatalf("merged generation gauge = %v, want %d", g, gen0+3)
	}

	// A malformed batch is refused whole: no shard applies its valid half.
	bad := graph.Batch{Add: []graph.Edge{{From: 3, To: 5, Weight: 1}, {From: 11, To: 13, Weight: math.NaN()}}}
	if _, err := a.ApplyBatch(bad); !errors.Is(err, graph.ErrInvalidBatch) {
		t.Fatalf("malformed batch: %v, want ErrInvalidBatch", err)
	}
	if got, _ := a.ShardStatus(0); got != 1 {
		t.Fatalf("shard 0 applied %d after a refused batch, want 1", got)
	}
}

// One shard's journal fails mid-batch while its sibling's apply lands.
// The applier reports the ailing shard, refuses further batches whole
// while it ails, and — after Recover — the replay of the held batch
// applies only the shard that missed it: every journal holds its
// sub-batch exactly once and the merged snapshot equals a from-scratch
// run.
func TestApplierRetryAfterPartialFailure(t *testing.T) {
	pt, engines, base := twoShardFixture(t)
	dir := t.TempDir()
	fsync := faultio.NewFsync()
	shardDir := func(s int) string { return filepath.Join(dir, string(rune('a'+s))) }
	targets := make([]serve.Applier, 2)
	durables := make([]*durable.Engine[float64, float64], 2)
	for s, e := range engines {
		o := durable.Options{WAL: wal.Options{Sync: wal.SyncEveryBatch}}
		if s == 1 {
			o.WAL.Hooks = wal.Hooks{BeforeSync: fsync.Check}
		}
		d, err := durable.Open(e, shardDir(s), o)
		if err != nil {
			t.Fatal(err)
		}
		durables[s], targets[s] = d, d
	}
	a, err := NewApplier(pt, engines, targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen0 := a.View().Snapshot().Generation

	b := graph.Batch{Add: []graph.Edge{{From: 3, To: 4, Weight: 1}, {From: 11, To: 12, Weight: 2}}}
	fsync.FailEveryKth(1, nil)
	if _, err := a.ApplyBatch(b); err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("ApplyBatch with shard 1's fsync failing = %v, want an error naming shard 1", err)
	}
	if ail := a.Ailment(); ail == nil || !strings.Contains(ail.Error(), "shard 1") {
		t.Fatalf("Ailment() = %v, want shard 1's fault", ail)
	}
	if _, ail := a.ShardStatus(1); ail == nil {
		t.Fatal("ShardStatus(1) reports no ailment")
	}
	if g := a.View().Snapshot().Generation; g != gen0 {
		t.Fatalf("merged generation advanced to %d on a failed apply", g)
	}
	if durables[0].Seq() != 1 || durables[1].Seq() != 0 {
		t.Fatalf("shard seqs %d/%d after the partial failure, want 1/0", durables[0].Seq(), durables[1].Seq())
	}

	// While a shard ails, batches are refused before any shard sees them.
	other := graph.Batch{Add: []graph.Edge{{From: 4, To: 5, Weight: 1}}}
	if _, err := a.ApplyBatch(other); err == nil {
		t.Fatal("a batch was accepted while shard 1 ailed")
	}
	if durables[0].Seq() != 1 {
		t.Fatalf("healthy shard applied a batch (seq %d) while its sibling ailed", durables[0].Seq())
	}
	if err := a.Recover(); err == nil {
		t.Fatal("Recover succeeded with the disk still failing")
	}

	fsync.FailEveryKth(0, nil)
	if err := a.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if ail := a.Ailment(); ail != nil {
		t.Fatalf("Ailment() after Recover = %v", ail)
	}
	if _, err := a.ApplyBatch(b); err != nil {
		t.Fatalf("replay after Recover: %v", err)
	}
	snap := a.View().Snapshot()
	if snap.Generation != gen0+1 {
		t.Fatalf("generation %d after the replay, want %d", snap.Generation, gen0+1)
	}
	checkAgainstScratch(t, snap, base, b)
	// The marks were consumed: the next batch reaches both shards again.
	next := graph.Batch{Add: []graph.Edge{{From: 4, To: 5, Weight: 1}, {From: 12, To: 13, Weight: 1}}}
	if _, err := a.ApplyBatch(next); err != nil {
		t.Fatal(err)
	}
	checkAgainstScratch(t, a.View().Snapshot(), base, b, next)

	subs, nextSubs := pt.Split(b), pt.Split(next)
	for s, d := range durables {
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		w, err := wal.Open(filepath.Join(shardDir(s), "graph.wal"), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		recs := w.Recovered()
		w.Close()
		if len(recs) != 2 {
			t.Fatalf("shard %d journal holds %d records, want 2 (each sub-batch once)", s, len(recs))
		}
		for i, want := range []graph.Batch{subs[s], nextSubs[s]} {
			if recs[i].Seq != uint64(i+1) || len(recs[i].Batch.Add) != 1 || recs[i].Batch.Add[0] != want.Add[0] {
				t.Fatalf("shard %d journal record %d = %+v, want seq %d carrying %+v", s, i, recs[i], i+1, want)
			}
		}
	}
}

// failApplier fails every apply without an ailment: terminal.
type failApplier struct{ err error }

func (f failApplier) ApplyBatch(graph.Batch) (core.Stats, error) { return core.Stats{}, f.err }

// An unrecoverable shard failure surfaces naming the shard, with no
// ailment for the loop to supervise (so the loop treats it as terminal)
// and nothing published.
func TestApplierTerminalFailureNamesShard(t *testing.T) {
	pt, engines, _ := twoShardFixture(t)
	boom := errors.New("disk on fire")
	a, err := NewApplier(pt, engines, []serve.Applier{engines[0], failApplier{boom}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen0 := a.View().Snapshot().Generation
	_, err = a.ApplyBatch(graph.Batch{Add: []graph.Edge{{From: 11, To: 12, Weight: 1}}})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("ApplyBatch = %v, want the injected failure naming shard 1", err)
	}
	if a.Ailment() != nil {
		t.Fatalf("Ailment() = %v for an unrecoverable failure", a.Ailment())
	}
	if g := a.View().Snapshot().Generation; g != gen0 {
		t.Fatalf("generation advanced to %d on a failed apply", g)
	}
}
