package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	graphbolt "repro"
	"repro/internal/gen"
	"repro/internal/parallel"
	"repro/internal/stream"
	"repro/internal/wal"
)

const warmupBatches = 10

// stepTimeout bounds every wait on the program under test, so a hang
// fails the run instead of outliving the driver's limit.
const stepTimeout = 60 * time.Second

// epoch anchors the monotonic timestamps stored in atomics.
var epoch = time.Now()

var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// inputs are what the program under test is given: the loaded edge
// list and the batches.
type inputs struct {
	sp      spec
	seed    uint64
	loaded  []graphbolt.Edge
	batches []graphbolt.Batch
}

// generate builds the workload's graph and its mutation stream. The
// graph is the workload's dataset, the same on every run, as the
// paper's are: its RMAT seed belongs to the spec. The run's seed drives
// everything that streams — which edges arrive in which batch, which
// loaded edges are deleted and when, and what the readers ask for.
// (With the graph reseeded too, SSSP's refinement work per batch moved
// by a quarter from graph to graph, and with it every write metric.)
func generate(sp spec, seed uint64, nBatches int) (*inputs, error) {
	edges := simpleRMAT(sp.GraphSeed, sp.Vertices, sp.Edges)
	cfg := stream.Config{LoadFraction: 0.5, DeleteFraction: 0.25, BatchSize: sp.BatchEdges, NumBatches: nBatches, Seed: seed}
	split := int(float64(len(edges)) * cfg.LoadFraction)
	arrivals := edges[split:]
	rng := gen.NewRNG(seed)
	for i := len(arrivals) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		arrivals[i], arrivals[j] = arrivals[j], arrivals[i]
	}
	strm, err := stream.FromEdges(sp.Vertices, edges, cfg)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", sp.Name, err)
	}
	// Once the additions run out the stream goes on with deletions alone:
	// smaller batches, other work. A run uses none of those.
	if last := strm.Batches[len(strm.Batches)-1]; len(strm.Batches) < nBatches || batchSize(last) < sp.BatchEdges {
		return nil, fmt.Errorf("generate %s: the graph's edges do not make %d full batches", sp.Name, nBatches)
	}
	return &inputs{sp: sp, seed: seed, loaded: edges[:split:split], batches: strm.Batches}, nil
}

// simpleRMAT draws RMAT edges until m distinct (from, to) pairs have
// appeared, keeping each pair's first occurrence: a simple graph, like
// the paper's datasets. Small RMAT graphs repeat their hub pairs so
// often that a streamed deletion keeps hitting an edge a queued batch
// adds, which ends the serve loop's coalescing run; how often is an
// accident of the seed and made the drain phase's throughput vary by a
// fifth between seeds.
func simpleRMAT(seed uint64, n, m int) []graphbolt.Edge {
	seen := make(map[uint64]struct{}, m)
	edges := make([]graphbolt.Edge, 0, m)
	for round := uint64(0); len(edges) < m; round++ {
		for _, e := range gen.RMAT(seed+round<<32, n, m, gen.WeightUniform) {
			key := uint64(e.From)<<32 | uint64(e.To)
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			if edges = append(edges, e); len(edges) == m {
				break
			}
		}
	}
	return edges
}

func batchSize(b graphbolt.Batch) int { return len(b.Add) + len(b.Del) }

// endpoint is one loopback HTTP listener.
type endpoint struct {
	srv *http.Server
	url string
}

func listen(h http.Handler) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ep := &endpoint{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String()}
	go ep.srv.Serve(ln) // returns when close() closes the server
	return ep, nil
}

func (e *endpoint) close() {
	if e != nil {
		e.srv.Close()
	}
}

// system is one wired instance of the program under test: engine,
// server, and for the replicated workload the replication log, the
// follower and both HTTP surfaces.
type system struct {
	sp  spec
	eng *graphbolt.Engine[float64, float64]
	srv *graphbolt.Server[float64, float64]

	rlog     *graphbolt.ReplicationLog
	follower *graphbolt.Follower[float64, float64]
	visible  []atomic.Int64 // follower OnApply time (ns since epoch) by record seq

	leaderHTTP, followerHTTP *endpoint
	readURL                  string
	dir                      string

	reg *graphbolt.MetricsRegistry // traced runs only
	rec *graphbolt.FlightRecorder  // traced runs only

	next    int    // index of the next unsubmitted batch
	mirror  int64  // independent edge count: loaded + added − deleted
	lastSeq uint64 // newest apply sequence seen on a resolved ticket (= the leader's journal seq)
}

type setupTimes struct {
	buildS, initialRunS, totalS float64
}

// setup builds the graph, runs the initial computation, opens the
// server (and follower), and pushes the warm-up batches through. With
// traced set, a private metrics registry and a flight recorder are
// attached to every layer that takes one.
func setup(in *inputs, traced bool, outDir string) (*system, setupTimes, error) {
	sp := in.sp
	s := &system{sp: sp, mirror: int64(len(in.loaded))}
	var st setupTimes
	start := time.Now()
	fail := func(err error) (*system, setupTimes, error) {
		s.close()
		return nil, st, fmt.Errorf("setup %s: %w", sp.Name, err)
	}

	g, err := graphbolt.BuildGraph(sp.Vertices, in.loaded)
	if err != nil {
		return fail(err)
	}
	st.buildS = time.Since(start).Seconds()

	if traced {
		s.reg = graphbolt.NewMetricsRegistry()
		s.rec = graphbolt.NewFlightRecorder(graphbolt.FlightOptions{Metrics: s.reg, Logger: quietLogger})
		parallel.SetMetrics(s.reg)
	}
	s.eng, err = graphbolt.NewEngine[float64, float64](g, sp.program(), graphbolt.Options{Metrics: s.reg})
	if err != nil {
		return fail(err)
	}
	// Admission control stays off: it turns latency into refusals.
	sopts := graphbolt.ServerOptions{QueryCacheBytes: sp.CacheBytes, Metrics: s.reg, Flight: s.rec, Logger: quietLogger}
	runStart := time.Now()
	if sp.Durable {
		s.dir, err = os.MkdirTemp(outDir, "durable-")
		if err != nil {
			return fail(err)
		}
		dopts := graphbolt.DurableOptions{
			WAL:     graphbolt.WALOptions{Sync: graphbolt.SyncEveryBatch},
			Metrics: s.reg, Flight: s.rec,
		}
		if sp.Replicated {
			s.rlog = graphbolt.NewReplicationLog(graphbolt.ReplicationLogOptions{Logger: quietLogger})
			dopts.OnRecord = s.rlog.Append
		}
		// OpenDurable on an empty directory runs the initial computation.
		d, err := graphbolt.OpenDurable(s.eng, filepath.Join(s.dir, "leader"), dopts)
		if err != nil {
			return fail(err)
		}
		st.initialRunS = time.Since(runStart).Seconds()
		s.srv = graphbolt.NewDurableServer(d, sopts)
	} else {
		s.eng.Run()
		st.initialRunS = time.Since(runStart).Seconds()
		s.srv = graphbolt.NewServer(s.eng, sopts)
	}

	mux := http.NewServeMux()
	mux.Handle("/v1/", graphbolt.QueryHandler(s.srv))
	if s.rlog != nil {
		mux.Handle("GET /v1/wal", s.rlog.Handler())
	}
	if s.leaderHTTP, err = listen(mux); err != nil {
		return fail(err)
	}
	s.readURL = s.leaderHTTP.url

	if sp.Replicated {
		// The follower is its own node: it loads the graph itself.
		fg, err := graphbolt.BuildGraph(sp.Vertices, in.loaded)
		if err != nil {
			return fail(err)
		}
		feng, err := graphbolt.NewEngine[float64, float64](fg, sp.program(), graphbolt.Options{})
		if err != nil {
			return fail(err)
		}
		s.visible = make([]atomic.Int64, len(in.batches)+1)
		s.follower, err = graphbolt.NewFollower(feng, nil, s.leaderHTTP.url, graphbolt.FollowerOptions{
			Metrics: s.reg, QueryCacheBytes: sp.CacheBytes, Logger: quietLogger,
			OnApply: func(rec wal.Record) {
				if rec.Seq < uint64(len(s.visible)) {
					s.visible[rec.Seq].Store(int64(time.Since(epoch)))
				}
			},
		})
		if err != nil {
			return fail(err)
		}
		s.follower.Start(context.Background())
		if s.followerHTTP, err = listen(graphbolt.FollowerQueryHandler(s.follower)); err != nil {
			return fail(err)
		}
		s.readURL = s.followerHTTP.url
	}

	ctx, cancel := context.WithTimeout(context.Background(), stepTimeout)
	defer cancel()
	for range warmupBatches {
		b := in.batches[s.next]
		tk, err := s.srv.Submit(ctx, b)
		if err != nil {
			return fail(fmt.Errorf("warm-up batch %d: %w", s.next, err))
		}
		ap, err := tk.Wait(ctx)
		if err != nil {
			return fail(fmt.Errorf("warm-up batch %d: %w", s.next, err))
		}
		s.submitted(b)
		s.lastSeq = ap.Seq
	}
	if err := s.awaitFollower(ctx, s.lastSeq); err != nil {
		return fail(err)
	}
	st.totalS = time.Since(start).Seconds()
	return s, st, nil
}

// submitted advances the stream position and the edge-count mirror.
func (s *system) submitted(b graphbolt.Batch) {
	s.next++
	s.mirror += int64(len(b.Add)) - int64(len(b.Del))
}

// visibleAt is when the follower applied record seq (zero if not yet).
func (s *system) visibleAt(seq uint64) time.Time {
	if s.visible == nil || seq >= uint64(len(s.visible)) {
		return time.Time{}
	}
	if ns := s.visible[seq].Load(); ns != 0 {
		return epoch.Add(time.Duration(ns))
	}
	return time.Time{}
}

// awaitFollower blocks until the follower has applied record seq. A
// workload without a follower returns at once.
func (s *system) awaitFollower(ctx context.Context, seq uint64) error {
	if s.follower == nil {
		return nil
	}
	for s.follower.AppliedSeq() < seq || s.visibleAt(seq).IsZero() {
		select {
		case <-ctx.Done():
			return fmt.Errorf("follower stuck at seq %d waiting for %d (stream error: %v)", s.follower.AppliedSeq(), seq, s.follower.Err())
		case <-time.After(200 * time.Microsecond):
		}
	}
	return nil
}

// close stops every goroutine the system started and removes its
// durable state. Safe on a partly built system.
func (s *system) close() {
	ctx, cancel := context.WithTimeout(context.Background(), stepTimeout)
	defer cancel()
	if s.follower != nil {
		s.follower.Close(ctx)
	}
	s.followerHTTP.close()
	if s.rlog != nil {
		s.rlog.Close()
	}
	s.leaderHTTP.close()
	if s.srv != nil {
		s.srv.Close(ctx)
	}
	if s.reg != nil {
		parallel.SetMetrics(nil)
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// verify is the correctness gate, run after drain and Sync: published
// values equal a fresh engine's Run on the final graph, the edge count
// equals the mirror, and the follower's snapshot equals the leader's at
// the same generation. It returns the fresh run's edge computations
// (the denominator of core.work_ratio_vs_reset).
func (s *system) verify(ctx context.Context) (int64, error) {
	snap := s.srv.Snapshot()
	if got := snap.Graph.NumEdges(); got != s.mirror {
		return 0, fmt.Errorf("final graph has %d edges, mirror has %d", got, s.mirror)
	}
	// Rebuild from the out-edge list, so an in-adjacency that drifted
	// from the out-adjacency shows up as a value mismatch.
	fg, err := graphbolt.BuildGraph(snap.Graph.NumVertices(), snap.Graph.Edges(nil))
	if err != nil {
		return 0, fmt.Errorf("rebuild final graph: %w", err)
	}
	fresh, err := graphbolt.NewEngine[float64, float64](fg, s.sp.program(), graphbolt.Options{})
	if err != nil {
		return 0, err
	}
	freshStats := fresh.Run()
	if err := equalValues(snap.Values, fresh.Values(), s.sp.exactValues()); err != nil {
		return 0, fmt.Errorf("published generation %d vs fresh run: %w", snap.Generation, err)
	}
	if s.follower != nil {
		if err := s.awaitFollower(ctx, s.lastSeq); err != nil {
			return 0, err
		}
		fs := s.follower.Snapshot()
		if fs.Generation != snap.Generation {
			return 0, fmt.Errorf("follower at generation %d, leader at %d", fs.Generation, snap.Generation)
		}
		if fs.Graph.NumEdges() != snap.Graph.NumEdges() {
			return 0, fmt.Errorf("follower graph has %d edges, leader %d", fs.Graph.NumEdges(), snap.Graph.NumEdges())
		}
		if err := equalValues(fs.Values, snap.Values, true); err != nil {
			return 0, fmt.Errorf("follower vs leader at generation %d: %w", snap.Generation, err)
		}
	}
	return freshStats.EdgeComputations, nil
}

// equalValues compares two value vectors: bit-exact (NaN never
// matches), or within 1e-6 relative-or-absolute.
func equalValues(got, want []float64, exact bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for v := range got {
		a, b := got[v], want[v]
		if a == b {
			continue
		}
		if !exact {
			if d := math.Abs(a - b); d <= 1e-6 || d <= 1e-6*math.Max(math.Abs(a), math.Abs(b)) {
				continue
			}
		}
		return fmt.Errorf("vertex %d: got %v, want %v", v, a, b)
	}
	return nil
}
