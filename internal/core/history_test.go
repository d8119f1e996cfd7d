package core_test

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
)

// historyEngine builds a small PageRank engine with the given retention
// and applies `batches` single-edge batches after the initial run.
func historyEngine(t *testing.T, retain, batches int, reg *obs.Registry) *core.Engine[float64, float64] {
	t.Helper()
	g := graph.MustBuild(4, []graph.Edge{{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 1}})
	eng, err := core.NewEngine[float64, float64](g, algorithms.NewPageRank(),
		core.Options{Retain: retain, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	for i := 0; i < batches; i++ {
		if _, err := eng.ApplyBatch(graph.Batch{Add: []graph.Edge{
			{From: graph.VertexID(i % 4), To: graph.VertexID((i + 2) % 4), Weight: 1},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

func TestSnapshotAtBeforeRun(t *testing.T) {
	g := graph.MustBuild(2, nil)
	eng, err := core.NewEngine[float64, float64](g, algorithms.NewPageRank(), core.Options{Retain: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SnapshotAt(1); !errors.Is(err, core.ErrGenerationNotRetained) {
		t.Fatalf("SnapshotAt before Run = %v, want ErrGenerationNotRetained", err)
	}
	if oldest, newest := eng.RetainedGenerations(); oldest != 0 || newest != 0 {
		t.Fatalf("RetainedGenerations before Run = [%d, %d], want [0, 0]", oldest, newest)
	}
}

func TestSnapshotAtWindow(t *testing.T) {
	// Retain 3 of 6 published generations: 4..6 addressable, 1..3 evicted.
	eng := historyEngine(t, 3, 5, nil)
	oldest, newest := eng.RetainedGenerations()
	if oldest != 4 || newest != 6 {
		t.Fatalf("retained window [%d, %d], want [4, 6]", oldest, newest)
	}
	for gen := oldest; gen <= newest; gen++ {
		s, err := eng.SnapshotAt(gen)
		if err != nil {
			t.Fatalf("SnapshotAt(%d): %v", gen, err)
		}
		if s.Generation != gen {
			t.Fatalf("SnapshotAt(%d).Generation = %d", gen, s.Generation)
		}
	}
	for _, gen := range []uint64{0, 1, 2, 3, 7} {
		if _, err := eng.SnapshotAt(gen); !errors.Is(err, core.ErrGenerationNotRetained) {
			t.Fatalf("SnapshotAt(%d) = %v, want ErrGenerationNotRetained", gen, err)
		}
	}
	// The newest snapshot served by SnapshotAt is the same object
	// Snapshot returns — history is pointers, not copies.
	s, err := eng.SnapshotAt(newest)
	if err != nil {
		t.Fatal(err)
	}
	if s != eng.Snapshot() {
		t.Fatal("SnapshotAt(newest) is not the current snapshot")
	}
}

func TestSnapshotAtRetentionOff(t *testing.T) {
	// Retain <= 1 keeps only the newest generation addressable.
	for _, retain := range []int{0, 1} {
		eng := historyEngine(t, retain, 2, nil)
		if _, err := eng.SnapshotAt(3); err != nil {
			t.Fatalf("retain=%d: newest generation: %v", retain, err)
		}
		if _, err := eng.SnapshotAt(2); !errors.Is(err, core.ErrGenerationNotRetained) {
			t.Fatalf("retain=%d: SnapshotAt(2) = %v, want ErrGenerationNotRetained", retain, err)
		}
		if oldest, newest := eng.RetainedGenerations(); oldest != 3 || newest != 3 {
			t.Fatalf("retain=%d: window [%d, %d], want [3, 3]", retain, oldest, newest)
		}
	}
}

func TestRetainedGenerationsGauge(t *testing.T) {
	reg := obs.NewRegistry()
	historyEngine(t, 3, 1, reg) // 2 published, both within the depth-3 ring
	if got := reg.Snapshot().Gauges["graphbolt_engine_retained_generations"]; got != 2 {
		t.Fatalf("retained gauge = %v, want 2", got)
	}
	reg2 := obs.NewRegistry()
	historyEngine(t, 3, 5, reg2) // 6 published, ring holds the last 3
	if got := reg2.Snapshot().Gauges["graphbolt_engine_retained_generations"]; got != 3 {
		t.Fatalf("retained gauge = %v, want 3", got)
	}
}

func TestDiffSnapshots(t *testing.T) {
	g := graph.MustBuild(3, []graph.Edge{{From: 0, To: 1, Weight: 1}})
	eng, err := core.NewEngine[float64, float64](g, algorithms.NewPageRank(), core.Options{Retain: 8})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// Gen 2 adds an edge into a brand-new vertex 3: the diff must report
	// the structural growth and compare vertex 3 against its initial
	// value at gen 1.
	if _, err := eng.ApplyBatch(graph.Batch{Add: []graph.Edge{{From: 1, To: 3, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	d, err := eng.DiffSnapshots(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.From != 1 || d.To != 2 {
		t.Fatalf("diff labeled [%d, %d]", d.From, d.To)
	}
	if d.VertexDelta != 1 || d.EdgeDelta != 1 {
		t.Fatalf("VertexDelta=%d EdgeDelta=%d, want 1, 1", d.VertexDelta, d.EdgeDelta)
	}
	s1, _ := eng.SnapshotAt(1)
	s2, _ := eng.SnapshotAt(2)
	if len(d.Changed) == 0 {
		t.Fatal("no changed vertices across a structural mutation")
	}
	p := algorithms.NewPageRank()
	for i, v := range d.Changed {
		want1 := p.InitValue(v)
		if int(v) < len(s1.Values) {
			want1 = s1.Values[v]
		}
		if d.Before[i] != want1 {
			t.Fatalf("vertex %d Before = %v, snapshot 1 has %v", v, d.Before[i], want1)
		}
		if d.After[i] != s2.Values[v] {
			t.Fatalf("vertex %d After = %v, snapshot 2 has %v", v, d.After[i], s2.Values[v])
		}
	}
	// Identity diff: nothing changed, zero deltas.
	id, err := eng.DiffSnapshots(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(id.Changed) != 0 || id.VertexDelta != 0 || id.EdgeDelta != 0 {
		t.Fatalf("identity diff not empty: %+v", id)
	}
	// Diffing an unretained generation fails with the sentinel.
	if _, err := eng.DiffSnapshots(1, 99); !errors.Is(err, core.ErrGenerationNotRetained) {
		t.Fatalf("diff to unpublished generation = %v, want ErrGenerationNotRetained", err)
	}
}

// TestHistoryRingEviction covers the ring directly: a slot reused by a
// newer generation makes the older one unaddressable, and At never
// returns a snapshot with the wrong generation.
func TestHistoryRingEviction(t *testing.T) {
	r := core.NewHistoryRing[int](3)
	if r.Cap() != 3 {
		t.Fatalf("Cap = %d, want 3", r.Cap())
	}
	for gen := uint64(1); gen <= 7; gen++ {
		r.Push(&core.ResultSnapshot[int]{Generation: gen})
	}
	for gen := uint64(1); gen <= 9; gen++ {
		s := r.At(gen)
		if want := gen >= 5 && gen <= 7; (s != nil) != want {
			t.Fatalf("At(%d) = %v, want present=%v", gen, s, want)
		}
		if s != nil && s.Generation != gen {
			t.Fatalf("At(%d).Generation = %d", gen, s.Generation)
		}
	}
	if got := core.NewHistoryRing[int](0).Cap(); got != 1 {
		t.Fatalf("NewHistoryRing(0).Cap = %d, want 1", got)
	}
}

// TestSnapshotAtConcurrentWithWriter reads the history ring from many
// goroutines while the writer streams batches — under -race this pins
// down the lock-free contract: every successful read returns the exact
// generation asked for, and failures are only the sentinel.
func TestSnapshotAtConcurrentWithWriter(t *testing.T) {
	g := graph.MustBuild(6, []graph.Edge{{From: 0, To: 1, Weight: 1}})
	eng, err := core.NewEngine[float64, float64](g, algorithms.NewPageRank(), core.Options{Retain: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	const batches = 200
	var wg sync.WaitGroup
	fail := make(chan string, 1)
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, newest := eng.RetainedGenerations()
				gen := uint64(1) + uint64(w+i)%newest
				s, err := eng.SnapshotAt(gen)
				switch {
				case err != nil && !errors.Is(err, core.ErrGenerationNotRetained):
					select {
					case fail <- err.Error():
					default:
					}
					return
				case err == nil && s.Generation != gen:
					select {
					case fail <- "wrong generation returned":
					default:
					}
					return
				}
			}
		}(w)
	}
	for i := 0; i < batches; i++ {
		if _, err := eng.ApplyBatch(graph.Batch{Add: []graph.Edge{
			{From: graph.VertexID(i % 6), To: graph.VertexID((i + 1) % 6), Weight: 1},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}

// TestRetainedGraphsScannedDuringStream is the structural-sharing half of
// the lock-free contract: successive graph snapshots share every page a
// batch did not touch, so readers walk both directions of whatever
// generations SnapshotAt still serves while the writer streams batches
// that also grow the vertex set. Under -race a write to a shared page is
// a report; without it, a snapshot whose lists stopped adding up to its
// edge count is.
func TestRetainedGraphsScannedDuringStream(t *testing.T) {
	batches := 150
	if testing.Short() {
		batches = 40
	}
	const n0 = 200
	g := graph.MustBuild(n0, gen.RMAT(98, n0, 2000, gen.WeightSmallInt))
	eng, err := core.NewEngine[float64, float64](g, algorithms.NewSSSP(0), core.Options{Retain: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				oldest, newest := eng.RetainedGenerations()
				s, err := eng.SnapshotAt(oldest + uint64(w+i)%(newest-oldest+1))
				if err != nil {
					continue // evicted between the two calls
				}
				var out, in int64
				for v := 0; v < s.Graph.NumVertices(); v++ {
					ts, ws := s.Graph.OutNeighbors(graph.VertexID(v))
					out += int64(len(ts))
					us, _ := s.Graph.InNeighbors(graph.VertexID(v))
					in += int64(len(us))
					if len(ts) != len(ws) || len(ts) != s.Graph.OutDegree(graph.VertexID(v)) {
						t.Errorf("generation %d: vertex %d lists disagree", s.Generation, v)
						return
					}
				}
				if out != s.Graph.NumEdges() || in != s.Graph.NumEdges() || len(s.Values) != s.Graph.NumVertices() {
					t.Errorf("generation %d: %d out / %d in entries for %d edges, %d values for %d vertices",
						s.Generation, out, in, s.Graph.NumEdges(), len(s.Values), s.Graph.NumVertices())
					return
				}
			}
		}(w)
	}
	r := gen.NewRNG(9)
	for i := 0; i < batches; i++ {
		n := eng.Graph().NumVertices()
		b := makeBatch(eng.Graph(), uint64(100+i), 15, 5)
		b.Add = append(b.Add, graph.Edge{From: graph.VertexID(r.Intn(n)), To: graph.VertexID(n + r.Intn(3)), Weight: 1})
		if _, err := eng.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
