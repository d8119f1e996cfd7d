// Package difftest is a differential test harness for the engine's
// generation-addressable snapshot history: it streams randomized
// mutation batches through an engine configured to retain every
// generation, mirrors the graph's evolution in an independent
// edge-multiset model, and then cross-checks each SnapshotAt(g) — both
// structure and values — against a from-scratch engine run on the
// independently reconstructed generation-g graph.
//
// This is the retention-era restatement of the paper's Theorem 4.1: not
// only must the *latest* refined result equal a from-scratch run, every
// *retained* historical result must equal a from-scratch run on the
// graph as it stood at that generation. The mirror applies the
// documented Batch semantics itself (deletions match pre-batch edges by
// (From, To), consuming instances in ascending (target, weight) order;
// additions append and may grow the vertex set), so a structural bug in
// graph.Apply cannot hide by corrupting both sides identically.
//
// Consecutive generations are additionally cross-checked through
// DiffSnapshots: reported before/after values must match the two
// snapshots vertex-for-vertex, the changed set must be exactly the
// program's Changed predicate over the union vertex range, and the
// structural deltas must match the mirror's.
package difftest

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Config shapes one differential run.
type Config struct {
	// Seed drives every random choice (graph, batches); runs are
	// deterministic per seed.
	Seed uint64
	// Batches is the number of mutation batches streamed (generations
	// verified = Batches + 1, counting the initial run). Default 20.
	Batches int
	// MaxIterations bounds both the streaming engine and every
	// from-scratch reference run. Default 10.
	MaxIterations int
	// Horizon is the streaming engine's pruning cut-off (0 =
	// MaxIterations). Reference runs never prune.
	Horizon int
}

func (c Config) withDefaults() Config {
	if c.Batches <= 0 {
		c.Batches = 20
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 10
	}
	return c
}

// Approx is the repository's one statement of tolerance-bounded float
// equality: got and want are equal when they are identical (so equal
// infinities are equal), or when they differ by at most abs, or by at
// most rel times the larger magnitude. NaN equals nothing. A zero
// tolerance disables that arm; both zero means exact. Unlike the usual
// one-liners it neither divides by a value that may be zero, nor depends
// on argument order, nor is blind to scale.
func Approx(got, want, rel, abs float64) bool {
	if got == want {
		return true
	}
	d := math.Abs(got - want)
	if math.IsNaN(d) || math.IsInf(d, 0) {
		return false
	}
	return d <= abs || d <= rel*math.Max(math.Abs(got), math.Abs(want))
}

// ScalarEqual returns a float64 comparator with absolute tolerance tol;
// two +Inf (unreachable SSSP vertices) compare equal, and tol <= 0
// means exact.
func ScalarEqual(tol float64) func(got, want float64) bool {
	return func(got, want float64) bool { return Approx(got, want, 0, tol) }
}

// VectorEqual returns a []float64 comparator applying ScalarEqual
// element-wise (lengths must match).
func VectorEqual(tol float64) func(got, want []float64) bool {
	eq := ScalarEqual(tol)
	return func(got, want []float64) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if !eq(got[i], want[i]) {
				return false
			}
		}
		return true
	}
}

// state is the independent mirror of the graph's evolution: a plain
// edge multiset plus vertex bound, never sharing code with
// graph.Apply's offset/shift passes.
type state struct {
	n     int
	edges []graph.Edge
}

// apply returns the post-batch state per the documented Batch contract.
func (s state) apply(b graph.Batch) state {
	n := s.n
	for _, e := range b.Add {
		if int(e.From)+1 > n {
			n = int(e.From) + 1
		}
		if int(e.To)+1 > n {
			n = int(e.To) + 1
		}
	}
	// Deletions match only pre-batch edges, keyed by (From, To) with the
	// request weight ignored, and consume parallel instances in
	// ascending weight order — so sort canonically and skip the first
	// `want` matches per key.
	old := append([]graph.Edge(nil), s.edges...)
	sortEdges(old)
	want := make(map[[2]graph.VertexID]int)
	for _, d := range b.Del {
		want[[2]graph.VertexID{d.From, d.To}]++
	}
	out := make([]graph.Edge, 0, len(old)+len(b.Add))
	for _, e := range old {
		k := [2]graph.VertexID{e.From, e.To}
		if want[k] > 0 {
			want[k]--
			continue
		}
		out = append(out, e)
	}
	out = append(out, b.Add...)
	return state{n: n, edges: out}
}

func sortEdges(es []graph.Edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		if es[i].To != es[j].To {
			return es[i].To < es[j].To
		}
		return es[i].Weight < es[j].Weight
	})
}

// randomState seeds the mirror with a random multigraph (self loops and
// parallel edges included).
func randomState(r *gen.RNG) state {
	n := 5 + r.Intn(40)
	edges := make([]graph.Edge, r.Intn(5*n))
	for i := range edges {
		edges[i] = graph.Edge{
			From:   graph.VertexID(r.Intn(n)),
			To:     graph.VertexID(r.Intn(n)),
			Weight: float64(r.Intn(6) + 1),
		}
	}
	return state{n: n, edges: edges}
}

// randomBatch derives a batch from the mirror alone — the engine's view
// never influences what gets streamed.
func randomBatch(r *gen.RNG, s state) graph.Batch {
	var b graph.Batch
	for i := 0; i < r.Intn(10); i++ {
		b.Add = append(b.Add, graph.Edge{
			From:   graph.VertexID(r.Intn(s.n + 2)),
			To:     graph.VertexID(r.Intn(s.n + 2)),
			Weight: float64(r.Intn(6) + 1),
		})
	}
	for i := 0; i < r.Intn(10) && len(s.edges) > 0; i++ {
		e := s.edges[r.Intn(len(s.edges))]
		b.Del = append(b.Del, graph.Edge{From: e.From, To: e.To})
	}
	return b
}

// build constructs a fresh graph snapshot from the mirror.
func (s state) build(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.Build(s.n, append([]graph.Edge(nil), s.edges...))
	if err != nil {
		t.Fatalf("difftest: mirror graph build: %v", err)
	}
	return g
}

// Run streams cfg.Batches randomized batches through an engine that
// retains every generation, then verifies each retained SnapshotAt(g)
// against the independent mirror: graph structure edge-for-edge, and
// values (per equal) against a from-scratch ModeReset run on the
// reconstructed generation-g graph. Consecutive generations are also
// cross-checked through DiffSnapshots.
func Run[V, A any](t testing.TB, newProg func() core.Program[V, A], equal func(got, want V) bool, cfg Config) {
	t.Helper()
	cfg = cfg.withDefaults()
	r := gen.NewRNG(cfg.Seed)
	st := randomState(r)

	eng, err := core.NewEngine[V, A](st.build(t), newProg(), core.Options{
		MaxIterations: cfg.MaxIterations,
		Horizon:       cfg.Horizon,
		Retain:        cfg.Batches + 1,
	})
	if err != nil {
		t.Fatalf("difftest: engine: %v", err)
	}
	eng.Run()

	// Concurrent point-in-time readers stress the lock-free ring while
	// the writer streams; under -race this proves SnapshotAt never
	// observes torn state. Results are checked for self-consistency
	// only — full verification happens after the stream.
	stop := make(chan struct{})
	readErr := make(chan error, 1)
	go func() {
		defer close(readErr)
		rr := gen.NewRNG(cfg.Seed ^ 0x9e3779b97f4a7c15)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, newest := eng.RetainedGenerations()
			if newest == 0 {
				continue
			}
			g := 1 + rr.Uint64()%newest
			snap, err := eng.SnapshotAt(g)
			if err != nil {
				readErr <- err
				return
			}
			if snap.Generation != g {
				readErr <- errors.New("SnapshotAt returned wrong generation")
				return
			}
		}
	}()

	hist := map[uint64]state{1: st}
	for i := 0; i < cfg.Batches; i++ {
		b := randomBatch(r, st)
		st = st.apply(b)
		if _, err := eng.ApplyBatch(b); err != nil {
			t.Fatalf("difftest: batch %d: %v", i+1, err)
		}
		hist[eng.Snapshot().Generation] = st
	}
	close(stop)
	if err := <-readErr; err != nil {
		t.Fatalf("difftest: concurrent reader: %v", err)
	}

	oldest, newest := eng.RetainedGenerations()
	if oldest != 1 || newest != uint64(cfg.Batches)+1 {
		t.Fatalf("difftest: retained window [%d, %d], want [1, %d]", oldest, newest, cfg.Batches+1)
	}

	for g := oldest; g <= newest; g++ {
		snap, err := eng.SnapshotAt(g)
		if err != nil {
			t.Fatalf("difftest: SnapshotAt(%d): %v", g, err)
		}
		if snap.Generation != g {
			t.Fatalf("difftest: SnapshotAt(%d) returned generation %d", g, snap.Generation)
		}
		verifyStructure(t, snap.Graph, hist[g], g)
		verifyValues(t, snap, hist[g], newProg, equal, cfg, g)
	}
	for g := oldest + 1; g <= newest; g++ {
		verifyDiff(t, eng, newProg(), g-1, g)
	}

	// The window's edges must fail cleanly, not return a wrong snapshot.
	for _, g := range []uint64{0, newest + 1} {
		if _, err := eng.SnapshotAt(g); !errors.Is(err, core.ErrGenerationNotRetained) {
			t.Fatalf("difftest: SnapshotAt(%d) = %v, want ErrGenerationNotRetained", g, err)
		}
	}
}

// verifyStructure compares the retained snapshot's graph with the
// mirror, edge-for-edge as sorted multisets.
func verifyStructure(t testing.TB, g *graph.Graph, want state, gen uint64) {
	t.Helper()
	if g.NumVertices() != want.n {
		t.Fatalf("difftest: gen %d: %d vertices, mirror has %d", gen, g.NumVertices(), want.n)
	}
	got := g.Edges(nil)
	exp := append([]graph.Edge(nil), want.edges...)
	sortEdges(got)
	sortEdges(exp)
	if len(got) != len(exp) {
		t.Fatalf("difftest: gen %d: %d edges, mirror has %d", gen, len(got), len(exp))
	}
	for i := range got {
		if got[i] != exp[i] {
			t.Fatalf("difftest: gen %d: edge[%d] = %+v, mirror has %+v", gen, i, got[i], exp[i])
		}
	}
}

// verifyValues runs a fresh from-scratch engine on the mirror's
// generation-g graph and compares every vertex value.
func verifyValues[V, A any](t testing.TB, snap *core.ResultSnapshot[V], want state,
	newProg func() core.Program[V, A], equal func(got, want V) bool, cfg Config, gen uint64) {
	t.Helper()
	if len(snap.Values) != want.n {
		t.Fatalf("difftest: gen %d: %d values, mirror has %d vertices", gen, len(snap.Values), want.n)
	}
	fresh, err := core.NewEngine[V, A](want.build(t), newProg(), core.Options{
		Mode:          core.ModeReset,
		MaxIterations: cfg.MaxIterations,
	})
	if err != nil {
		t.Fatalf("difftest: gen %d: reference engine: %v", gen, err)
	}
	fresh.Run()
	ref := fresh.Values()
	for v := range snap.Values {
		if !equal(snap.Values[v], ref[v]) {
			t.Fatalf("difftest: gen %d: vertex %d: retained %v, from-scratch %v",
				gen, v, snap.Values[v], ref[v])
		}
	}
}

// verifyDiff cross-checks DiffSnapshots(from, to) against the two
// snapshots it claims to compare.
func verifyDiff[V, A any](t testing.TB, eng *core.Engine[V, A], p core.Program[V, A], from, to uint64) {
	t.Helper()
	d, err := eng.DiffSnapshots(from, to)
	if err != nil {
		t.Fatalf("difftest: DiffSnapshots(%d, %d): %v", from, to, err)
	}
	a, err := eng.SnapshotAt(from)
	if err != nil {
		t.Fatalf("difftest: SnapshotAt(%d): %v", from, err)
	}
	b, err := eng.SnapshotAt(to)
	if err != nil {
		t.Fatalf("difftest: SnapshotAt(%d): %v", to, err)
	}
	if d.From != from || d.To != to {
		t.Fatalf("difftest: diff labeled [%d, %d], want [%d, %d]", d.From, d.To, from, to)
	}
	if got, want := d.VertexDelta, b.Graph.NumVertices()-a.Graph.NumVertices(); got != want {
		t.Fatalf("difftest: diff %d→%d: VertexDelta %d, want %d", from, to, got, want)
	}
	if got, want := d.EdgeDelta, b.Graph.NumEdges()-a.Graph.NumEdges(); got != want {
		t.Fatalf("difftest: diff %d→%d: EdgeDelta %d, want %d", from, to, got, want)
	}
	if len(d.Before) != len(d.Changed) || len(d.After) != len(d.Changed) {
		t.Fatalf("difftest: diff %d→%d: %d changed but %d/%d before/after values",
			from, to, len(d.Changed), len(d.Before), len(d.After))
	}
	// value-at reads vertex v in a snapshot, falling back to the
	// program's initial value outside the snapshot's range — the same
	// convention DiffSnapshots documents.
	at := func(s *core.ResultSnapshot[V], v graph.VertexID) V {
		if int(v) < len(s.Values) {
			return s.Values[v]
		}
		return p.InitValue(v)
	}
	inDiff := make(map[graph.VertexID]int, len(d.Changed))
	for i, v := range d.Changed {
		if i > 0 && d.Changed[i-1] >= v {
			t.Fatalf("difftest: diff %d→%d: Changed not strictly ascending at %d", from, to, i)
		}
		inDiff[v] = i
		if !reflect.DeepEqual(d.Before[i], at(a, v)) {
			t.Fatalf("difftest: diff %d→%d: vertex %d Before = %v, snapshot has %v",
				from, to, v, d.Before[i], at(a, v))
		}
		if !reflect.DeepEqual(d.After[i], at(b, v)) {
			t.Fatalf("difftest: diff %d→%d: vertex %d After = %v, snapshot has %v",
				from, to, v, d.After[i], at(b, v))
		}
	}
	// Completeness and soundness against the program's own predicate:
	// the changed set is exactly {v : Changed(before, after)}.
	n := len(a.Values)
	if len(b.Values) > n {
		n = len(b.Values)
	}
	for v := 0; v < n; v++ {
		vid := graph.VertexID(v)
		changed := p.Changed(at(a, vid), at(b, vid))
		if _, ok := inDiff[vid]; ok != changed {
			t.Fatalf("difftest: diff %d→%d: vertex %d in diff = %v, Changed predicate = %v",
				from, to, v, ok, changed)
		}
	}
}
