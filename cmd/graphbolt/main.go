// Command graphbolt runs a streaming graph computation: it loads a base
// graph, computes the initial result, then serves mutation batches from
// a stream file (graphgen's format), reporting per-apply latency and
// work, and finally the top-k result.
//
// Usage:
//
//	graphbolt -graph base.el -stream stream.el -algo pagerank
//	graphbolt -graph base.el -algo sssp -source 0 -top 10
//	graphbolt -graph base.el -stream stream.el -wal-dir state/ -checkpoint-every 10
//	graphbolt -graph base.el -stream stream.el -metrics-addr localhost:9090
//
// Every stream is ingested through the concurrent serving facade:
// batches flow through a bounded, coalescing single-writer queue and
// every apply publishes a result snapshot. -readers goroutines (default
// 0) concurrently sample the published snapshots, and the final report
// adds read throughput and staleness to the ingest progress:
//
//	graphbolt -graph base.el -stream stream.el -readers 8
//
// With -wal-dir, every batch is journaled to a write-ahead log before it
// is applied and the engine is checkpointed every -checkpoint-every
// batches; restarting the command with the same -wal-dir recovers the
// pre-crash state and continues the stream from there. Coalescing is off
// with -wal-dir, so one journal record is one stream batch. While a
// journal fault holds the server degraded, the stream waits and the
// refused batch is resubmitted once the server has repaired itself.
//
// With -shards N, each batch fans out over N partition shards, each with
// its own in-memory engine, joined before the merged snapshot publishes
// (not with -wal-dir).
//
// With -validate, the final published values are compared against a
// from-scratch run on the final published graph; the command exits 1 if
// they differ by more than 1e-6. Two runs exit 1 by design: -mode naive,
// the error baseline, and -shards N on a stream whose edges cross
// shards, where values near the cut are approximations.
//
// With -metrics-addr, an HTTP server exposes /metrics (Prometheus text),
// /metrics.json, /healthz (JSON health: 200 while healthy or degraded,
// 503 once failed), /debug/vars (expvar) and /debug/pprof/* while the
// stream runs, and every layer (engine, journal, checkpoints, parallel
// loops) reports into the one registry the command builds.
//
// With -retain N, the last N published generations stay addressable for
// point-in-time reads (Server.SnapshotAt; /v1/snapshot/{gen} and ?gen=
// over -api-addr); -query-cache B gives the server a B-byte
// per-generation cache memoizing /v1/topk, with hit/miss/bytes visible
// under graphbolt_qcache_* in /metrics (a point read indexes the
// snapshot and bypasses it):
//
//	graphbolt -graph base.el -stream stream.el -readers 4 -retain 16 -query-cache 1048576
//
// With -flight, every batch gets a trace ID at submission and the
// flight recorder keeps the last -flight-depth lifecycle events
// (submission, queueing, coalescing, journaling with fsync latency,
// apply, publication) in a mutex-guarded ring. The ring is dumped to
// the log on any transition to degraded/failed, and is served as JSON
// at /debug/flight (filter with ?trace=ID, ?kind=NAME, ?dump=last):
//
//	graphbolt -graph base.el -stream stream.el -flight
//
// With -api-addr, the HTTP/JSON query API — /v1/snapshot,
// /v1/snapshot/{gen}, /v1/topk, /v1/value/{vertex} — plus
// /healthz and the /metrics family is served on that address, for
// scalar-valued algorithms. When -wal-dir is also set, the same listener
// serves the replication stream at GET /v1/wal: every journaled record,
// CRC-framed exactly as on disk, streamed to followers and resumable by
// sequence number:
//
//	graphbolt -graph base.el -stream stream.el -wal-dir state/ -api-addr :8080
//
// With -follow, the process runs as a read replica instead: it tails
// the leader's /v1/wal stream, replays every record through the same
// engine (re-journaling locally when -wal-dir is set, so a restart
// resumes seq-exact from disk), takes no writes, and serves the same
// query API on -api-addr. If the leader has compacted past the
// follower's position, the follower re-seeds itself from the leader's
// GET /v1/checkpoint and resumes the stream from there; -stall-timeout
// bounds how long a silent connection (no records, no heartbeats) is
// tolerated before re-dialing. Run it with the leader's -graph, -algo
// and -retain so the generations line up:
//
//	graphbolt -graph base.el -algo pagerank -follow http://leader:8080 -api-addr :8081
//
// Progress is logged with log/slog, one line per event (load, recovery,
// initial run, each apply); -log-format selects text or JSON. Result
// output (-top, -validate) stays on stdout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	graphbolt "repro"
	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/flight"
	"repro/internal/graph"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/stream"
	"repro/internal/wal"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fatal("%v", err)
	}
}

// cli is one invocation: its flags, and what run builds from them for
// the leader, the follower and the report to share.
type cli struct {
	graphPath    string
	streamPath   string
	algo         string
	mode         string
	iterations   int
	horizon      int
	source       uint
	top          int
	validate     bool
	walDir       string
	ckptEvery    int
	syncMode     string
	metricsAt    string
	logFmt       string
	readers      int
	shards       int
	queueDepth   int
	retain       int
	queryCache   int64
	flightOn     bool
	flightDepth  int
	apiAddr      string
	follow       string
	stallTimeout time.Duration

	stdout  io.Writer
	log     *slog.Logger
	reg     *obs.Registry             // nil unless -metrics-addr
	rec     *flight.Recorder          // nil unless -flight
	rlog    *graphbolt.ReplicationLog // nil unless a durable leader with -api-addr
	sync    wal.SyncPolicy
	opts    core.Options
	g       *graph.Graph
	batches []graph.Batch
	// The listeners start before the server exists: /healthz reads the
	// tracker, and /v1/* the query API, through these proxies once the
	// server (or follower) fills them in. Until then the nil tracker
	// reports healthy and /v1/* answers 503.
	health atomic.Pointer[health.Tracker]
	query  atomic.Pointer[http.Handler]
}

// run is the whole command over args, writing results to stdout and
// progress logs (and flag errors) to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	c := &cli{stdout: stdout}
	fs := flag.NewFlagSet("graphbolt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.graphPath, "graph", "", "base graph edge-list file (required)")
	fs.StringVar(&c.streamPath, "stream", "", "mutation stream file (optional)")
	fs.StringVar(&c.algo, "algo", "pagerank", "pagerank | labelprop | coem | bp | cf | sssp | bfs | cc | triangles")
	fs.StringVar(&c.mode, "mode", "graphbolt", "graphbolt | graphbolt-rp | reset | ligra | naive")
	fs.IntVar(&c.iterations, "iterations", 10, "BSP iterations")
	fs.IntVar(&c.horizon, "horizon", 0, "horizontal pruning cut-off (0 = iterations)")
	fs.UintVar(&c.source, "source", 0, "source vertex for sssp/bfs")
	fs.IntVar(&c.top, "top", 5, "print the top-k vertices by value")
	fs.BoolVar(&c.validate, "validate", false, "after the stream, cross-check against a from-scratch run; exit 1 above 1e-6")
	fs.StringVar(&c.walDir, "wal-dir", "", "directory for the write-ahead log and checkpoints (enables durability + crash recovery)")
	fs.IntVar(&c.ckptEvery, "checkpoint-every", 10, "batches between automatic checkpoints (with -wal-dir; 0 = only journal)")
	fs.StringVar(&c.syncMode, "sync", "every", "journal sync policy: every | interval | none (with -wal-dir)")
	fs.StringVar(&c.metricsAt, "metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. localhost:9090)")
	fs.StringVar(&c.logFmt, "log-format", "text", "progress log format: text | json")
	fs.IntVar(&c.readers, "readers", 0, "concurrent snapshot readers sampling the server while the stream runs")
	fs.IntVar(&c.shards, "shards", 1, "fan each batch out over N partition shards, each with its own engine, joined before the merged snapshot publishes (incompatible with -wal-dir)")
	fs.IntVar(&c.queueDepth, "queue-depth", 0, "ingest queue bound (0 = default)")
	fs.IntVar(&c.retain, "retain", 1, "published generations kept addressable for point-in-time reads (SnapshotAt)")
	fs.Int64Var(&c.queryCache, "query-cache", 0, "per-generation /v1/topk cache budget in bytes (0 = off)")
	fs.BoolVar(&c.flightOn, "flight", false, "enable the batch-lifecycle flight recorder: trace IDs on every batch, /debug/flight, dumps on degrade")
	fs.IntVar(&c.flightDepth, "flight-depth", 0, "flight recorder ring capacity in events (0 = default 4096; with -flight)")
	fs.StringVar(&c.apiAddr, "api-addr", "", "serve the HTTP/JSON query API (/v1/snapshot, /v1/topk, /v1/value) on this address; with -wal-dir also the replication stream at /v1/wal")
	fs.StringVar(&c.follow, "follow", "", "run as a read replica tailing this leader URL's /v1/wal stream (e.g. http://leader:8080); takes no writes, serves the query API on -api-addr")
	fs.DurationVar(&c.stallTimeout, "stall-timeout", 0, "follower stream-stall watchdog: drop and re-dial a connection that carries neither records nor heartbeats for this long (0 = default 15s; negative disables; with -follow)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var err error
	if c.log, err = newLogger(c.logFmt, stderr); err != nil {
		return err
	}
	if c.graphPath == "" {
		return errors.New("need -graph")
	}
	if c.follow != "" && (c.streamPath != "" || c.shards > 1) {
		return errors.New("-follow is a read replica: it takes no -stream or -shards")
	}
	if c.shards > 1 && c.walDir != "" {
		// Sharded serving is in-memory only.
		return errors.New("-shards is incompatible with -wal-dir")
	}
	if c.algo == "triangles" {
		// Triangle counting is not an engine: nothing is served.
		var serving []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "wal-dir", "follow", "api-addr", "shards", "readers", "queue-depth", "query-cache":
				serving = append(serving, "-"+f.Name)
			}
		})
		if len(serving) > 0 {
			return fmt.Errorf("%v not supported with -algo triangles", serving)
		}
	}
	if c.walDir != "" {
		if c.sync, err = parseSync(c.syncMode); err != nil {
			return err
		}
	}
	m, err := core.ParseMode(c.mode)
	if err != nil {
		return err
	}

	if c.metricsAt != "" {
		c.reg = graphbolt.NewMetricsRegistry()
		graphbolt.RegisterMetrics(c.reg)
	}
	// The recorder is built before the metrics mux so /debug/flight can
	// serve it from the start; with -flight off the nil recorder is inert
	// and its route answers 404.
	if c.flightOn {
		c.rec = flight.New(flight.Options{Depth: c.flightDepth, Logger: c.log, Metrics: c.reg})
		c.log.Info("flight recorder enabled", "depth", c.rec.Depth())
	}
	healthz := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		health.Handler(c.health.Load()).ServeHTTP(w, r)
	})
	if c.metricsAt != "" {
		ln, err := c.listen("metrics", c.metricsAt, obs.HandlerWith(c.reg, map[string]http.Handler{
			"/healthz":      healthz,
			"/debug/flight": c.rec.Handler(),
		}), "endpoints", "/metrics /metrics.json /healthz /debug/flight /debug/vars /debug/pprof/")
		if err != nil {
			return err
		}
		defer ln.Close()
	}
	if c.apiAddr != "" && c.follow == "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
			if h := c.query.Load(); h != nil {
				(*h).ServeHTTP(w, r)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"server not started yet"}`)
		})
		mux.Handle("/healthz", healthz)
		// The replication log is fed by the journal's OnRecord hook and
		// streams from the start: a follower may connect before ingest
		// does. It exists only on a durable leader: without a journal
		// there are no sequence numbers to ship.
		if c.walDir != "" {
			// The checkpoint hint reads the directory, not the engine, so
			// the log can advertise re-seedability before the engine opens.
			c.rlog = graphbolt.NewReplicationLog(graphbolt.ReplicationLogOptions{
				Logger:        c.log,
				CheckpointSeq: graphbolt.CheckpointDir(c.walDir).CheckpointSeq,
			})
			defer c.rlog.Close()
			mux.Handle("GET /v1/wal", c.rlog.Handler())
			// Followers whose resume position was compacted away re-seed
			// from here (404 until the first checkpoint lands on disk).
			mux.Handle("GET /v1/checkpoint", graphbolt.CheckpointHandler(graphbolt.CheckpointDir(c.walDir)))
		}
		ln, err := c.listen("query api", c.apiAddr, mux, "replication", c.rlog != nil)
		if err != nil {
			return err
		}
		defer ln.Close()
	}

	if c.g, err = graphbolt.LoadGraphFile(c.graphPath); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	c.log.Info("loaded graph", "path", c.graphPath, "vertices", c.g.NumVertices(), "edges", c.g.NumEdges())
	if c.streamPath != "" {
		sf, err := os.Open(c.streamPath)
		if err != nil {
			return err
		}
		c.batches, err = stream.ReadBatches(sf)
		sf.Close()
		if err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		c.log.Info("loaded stream", "path", c.streamPath, "batches", len(c.batches))
	}
	c.opts = core.Options{Mode: m, MaxIterations: c.iterations, Horizon: c.horizon, Retain: c.retain, Metrics: c.reg, Flight: c.rec}

	if c.algo == "triangles" {
		return runTriangles(c)
	}
	a, ok := table[c.algo]
	if !ok {
		return fmt.Errorf("unknown algorithm %q", c.algo)
	}
	return a(c)
}

// table is the one per-algorithm table: the leader, the follower and
// -validate all read their program, report and comparison from it.
// triangles is not an engine and runs apart (runTriangles).
var table = map[string]func(*cli) error{
	"pagerank": scalar("rank", func(*cli) core.Program[float64, float64] { return algorithms.NewPageRank() }),
	"coem": scalar("score", func(c *cli) core.Program[float64, algorithms.CoEMAgg] {
		return algorithms.NewCoEM([]graph.VertexID{0}, []graph.VertexID{graph.VertexID(c.g.NumVertices() - 1)})
	}),
	"sssp": scalar("distance", func(c *cli) core.Program[float64, float64] { return algorithms.NewSSSP(graph.VertexID(c.source)) }),
	"bfs":  scalar("hops", func(c *cli) core.Program[float64, float64] { return algorithms.NewBFS(graph.VertexID(c.source)) }),
	"cc":   scalar("component", func(*cli) core.Program[float64, float64] { return algorithms.NewConnectedComponents() }),
	"labelprop": vector("label", func(*cli) core.Program[[]float64, []float64] {
		return algorithms.NewLabelProp(3, map[graph.VertexID]int{0: 0, 1: 1, 2: 2})
	}),
	"bp": vector("belief", func(*cli) core.Program[[]float64, []float64] { return algorithms.NewBeliefProp(3) }),
	"cf": vector("factors", func(*cli) core.Program[[]float64, algorithms.CFAgg] { return algorithms.NewCollabFilter(4) }),
}

// algorithm is one table row. value names what a vertex value means in
// the report; program builds a fresh program over c's base graph and
// -source. api is the query API, nil for vector values: /v1/topk
// needs ordered values.
type algorithm[V, A any] struct {
	value   string
	program func(c *cli) core.Program[V, A]
	print   func(w io.Writer, value string, vals []V, k int)
	diff    func(a, b []V) float64
	api     func(replica.Source[V]) http.Handler
}

func scalar[A any](value string, p func(*cli) core.Program[float64, A]) func(*cli) error {
	return algorithm[float64, A]{value, p, printTop, maxAbsDiffScalar, replica.API[float64]}.run
}

func vector[A any](value string, p func(*cli) core.Program[[]float64, A]) func(*cli) error {
	return algorithm[[]float64, A]{value, p, printVector, maxAbsDiffVector, nil}.run
}

func (a algorithm[V, A]) run(c *cli) error {
	eng, err := core.NewEngine[V, A](c.g, a.program(c), c.opts)
	if err != nil {
		return err
	}
	if c.follow != "" {
		return a.followLeader(c, eng)
	}
	start := time.Now()
	var d *durable.Engine[V, A]
	var skip uint64
	if c.walDir != "" {
		if d, err = openDurable(c, eng); err != nil {
			return err
		}
		skip = d.Seq()
	} else {
		eng.Run()
	}
	st := eng.TotalStats()
	c.log.Info("initial run",
		"mode", c.opts.Mode.String(),
		"iterations", st.Iterations,
		"edge_computations", st.EdgeComputations,
		"duration", time.Since(start).Round(time.Microsecond))
	batches := c.batches
	if skip > 0 {
		c.log.Info("recovered state covers stream prefix", "batches_skipped", skip)
		if skip > uint64(len(batches)) {
			skip = uint64(len(batches))
		}
		batches = batches[skip:]
	}
	snap, err := a.serve(c, eng, d, batches)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	a.print(c.stdout, a.value, snap.Values, c.top)
	if !c.validate {
		return nil
	}
	// -validate: the published values against a from-scratch run on the
	// published graph.
	o := c.opts
	o.Mode = core.ModeReset
	fresh, err := core.NewEngine[V, A](snap.Graph, a.program(c), o)
	if err != nil {
		return err
	}
	fresh.Run()
	worst := a.diff(snap.Values, fresh.Values())
	fmt.Fprintf(c.stdout, "validation: max |streamed - scratch| = %.3e\n", worst)
	if worst > 1e-6 {
		return fmt.Errorf("validation failed: streamed values diverge from a from-scratch run by %.3e > 1e-6", worst)
	}
	return nil
}

// openDurable opens eng over -wal-dir, recovering whatever state the
// directory holds. On a replicating leader every journaled record also
// goes to the replication log, whose floor is the checkpoint-covered
// prefix (the replayed suffix arrives through OnRecord).
func openDurable[V, A any](c *cli, eng *core.Engine[V, A]) (*durable.Engine[V, A], error) {
	opts := durable.Options{
		CheckpointEvery: c.ckptEvery,
		WAL:             wal.Options{Sync: c.sync},
		Metrics:         c.reg,
		Flight:          c.rec,
	}
	if c.rlog != nil {
		opts.OnRecord = c.rlog.Append
	}
	d, err := durable.Open(eng, c.walDir, opts)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	info := d.Recovery()
	if c.rlog != nil {
		c.rlog.SetFloor(info.SnapshotSeq)
	}
	if info.FromSnapshot || info.Replayed > 0 {
		c.log.Info("recovered",
			"dir", c.walDir,
			"from_snapshot", info.FromSnapshot,
			"snapshot_seq", info.SnapshotSeq,
			"replayed", info.Replayed,
			"skipped", info.Skipped,
			"torn_tail", info.WAL.Truncated,
			"dropped_bytes", info.WAL.DroppedBytes)
	}
	return d, nil
}

// serve streams the batches through a graphbolt.Server (durable when d
// is non-nil) while -readers goroutines sample published snapshots,
// then closes the server (journal included) and returns its final
// snapshot.
func (a algorithm[V, A]) serve(c *cli, eng *core.Engine[V, A], d *durable.Engine[V, A], batches []graph.Batch) (*core.ResultSnapshot[V], error) {
	var applyCalls, appliedBatches atomic.Int64
	opts := graphbolt.ServerOptions{
		Shards:          c.shards,
		QueueDepth:      c.queueDepth,
		QueryCacheBytes: c.queryCache,
		Logger:          c.log,
		Flight:          c.rec,
		// Resuming an interrupted stream relies on journal seq == stream
		// position (skip = d.Seq()), so the durable path must journal
		// exactly one record per stream batch.
		DisableCoalescing: d != nil,
		Metrics:           c.reg,
		OnApply: func(ap graphbolt.Applied) {
			applyCalls.Add(1)
			appliedBatches.Add(int64(ap.Batches))
			c.log.Info("batches applied",
				"seq", ap.Seq,
				"trace", ap.Trace.ID,
				"coalesced", ap.Batches,
				"iterations", ap.Stats.Iterations,
				"refine_iterations", ap.Stats.RefineIterations,
				"edge_computations", ap.Stats.EdgeComputations)
		},
	}
	var srv *graphbolt.Server[V, A]
	if d != nil {
		srv = graphbolt.NewDurableServer(d, opts)
	} else {
		srv = graphbolt.NewServer(eng, opts)
	}
	srv.Health().OnTransition(func(from, to health.State, cause error) {
		c.log.Warn("health transition", "from", from.String(), "to", to.String(), "cause", cause)
	})
	c.health.Store(srv.Health())
	if c.apiAddr != "" {
		if a.api != nil {
			h := a.api(srv)
			c.query.Store(&h)
		} else {
			c.log.Warn("query api: no handler for this algorithm's value type (scalar-valued algorithms only)")
		}
	}

	var (
		queries       atomic.Int64
		maxStaleNanos atomic.Int64
		done          = make(chan struct{})
		wg            sync.WaitGroup
	)
	for r := 0; r < c.readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s := srv.Snapshot()
				q := queries.Add(1)
				// A point read on a rotating vertex: one index into the
				// immutable snapshot.
				if n := len(s.Values); n > 0 {
					_ = s.Values[int(q)%n]
				}
				stale := time.Since(s.PublishedAt).Nanoseconds()
				for {
					cur := maxStaleNanos.Load()
					if stale <= cur || maxStaleNanos.CompareAndSwap(cur, stale) {
						break
					}
				}
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}

	ctx := context.Background()
	start := time.Now()
	err := submitAll(ctx, srv, batches)
	if err == nil {
		if _, err = srv.Sync(ctx); err != nil {
			err = fmt.Errorf("sync: %w", err)
		}
	}
	ingest := time.Since(start)
	close(done)
	wg.Wait()
	if cerr := srv.Close(ctx); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	oldest, newest := srv.RetainedGenerations()
	c.log.Info("serve complete",
		"batches", appliedBatches.Load(),
		"apply_calls", applyCalls.Load(),
		"generation", srv.Generation(),
		"ingest_duration", ingest.Round(time.Microsecond),
		"queries", queries.Load(),
		"max_staleness", time.Duration(maxStaleNanos.Load()).Round(time.Microsecond),
		"retained_oldest", oldest,
		"retained_newest", newest,
		"cache_entries", srv.Cache().Len(),
		"cache_bytes", srv.Cache().Bytes())
	if fr := srv.Flight(); fr != nil {
		c.log.Info("flight summary",
			"events", fr.Events(),
			"dropped", fr.Dropped(),
			"dumps", fr.Dumps())
	}
	return srv.Snapshot(), nil
}

// submitAll submits the batches in stream order; it is the server's only
// producer. A degraded server (a journal fault under repair) refuses
// writes with ErrDegraded until it is healthy again, so the refused
// batch is resubmitted after a short sleep: every batch lands exactly
// once, in order.
func submitAll[V, A any](ctx context.Context, srv *graphbolt.Server[V, A], batches []graph.Batch) error {
	for i, b := range batches {
		for {
			_, err := srv.Submit(ctx, b)
			if err == nil {
				break
			}
			if !errors.Is(err, graphbolt.ErrDegraded) {
				return fmt.Errorf("submit batch %d: %w", i+1, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// followLeader runs the replica loop in the foreground: build the
// follower (durable when -wal-dir is set), serve the query API, tail the
// leader until SIGINT/SIGTERM or a terminal stream fault.
func (a algorithm[V, A]) followLeader(c *cli, eng *core.Engine[V, A]) error {
	if a.api == nil {
		return fmt.Errorf("-follow supports scalar-valued algorithms (pagerank, coem, sssp, bfs, cc), not %q", c.algo)
	}
	tracker := health.NewTracker(c.reg)
	c.health.Store(tracker)
	fopts := graphbolt.FollowerOptions{
		Metrics:         c.reg,
		QueryCacheBytes: c.queryCache,
		Logger:          c.log,
		StallTimeout:    c.stallTimeout,
		Health:          tracker,
		Flight:          c.rec,
	}
	var f *graphbolt.Follower[V, A]
	var err error
	if c.walDir != "" {
		d, derr := openDurable(c, eng)
		if derr != nil {
			return derr
		}
		defer d.Close()
		c.log.Info("follower bootstrap", "mode", "durable", "dir", c.walDir, "resume_from", d.Seq())
		f, err = graphbolt.NewDurableFollower(d, c.follow, fopts)
	} else {
		// No -wal-dir: the resume position lives only in memory, so every
		// process start is a bootstrap from sequence 0 — served by the
		// leader's log when it still covers it, or by a shipped checkpoint
		// once the log has been compacted.
		c.log.Info("follower bootstrap", "mode", "in-memory", "resume_from", 0,
			"note", "no -wal-dir: restart re-streams from 0 or re-seeds from the leader's checkpoint")
		f, err = graphbolt.NewFollower(eng, nil, c.follow, fopts)
	}
	if err != nil {
		return fmt.Errorf("follow: %w", err)
	}
	if c.apiAddr != "" {
		h := a.api(f)
		if c.reg != nil {
			h = obs.HandlerWith(c.reg, map[string]http.Handler{"/v1/": h})
		}
		ln, err := c.listen("follower query api", c.apiAddr, h)
		if err != nil {
			return err
		}
		defer ln.Close()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c.log.Info("following", "leader", c.follow, "durable", c.walDir != "")
	if err := f.Run(ctx); ctx.Err() == nil && err != nil {
		return fmt.Errorf("follow: %w", err)
	}
	c.log.Info("follower stopped",
		"applied", f.AppliedSeq(),
		"leader_seq", f.LeaderSeq(),
		"lag", f.Lag(),
		"records", f.Records(),
		"resumes", f.Resumes(),
		"reseeds", f.Reseeds(),
		"stalls", f.Stalls())
	a.print(c.stdout, a.value, eng.Values(), c.top)
	return nil
}

// listen serves h on addr in the background until the returned listener
// is closed.
func (c *cli) listen(name, addr string, h http.Handler, attrs ...any) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%s listener: %w", name, err)
	}
	c.log.Info(name, append([]any{"addr", ln.Addr().String()}, attrs...)...)
	go func() {
		if err := http.Serve(ln, h); !errors.Is(err, net.ErrClosed) {
			c.log.Error(name+" server", "err", err)
		}
	}()
	return ln, nil
}

// absDiff is the validation distance between two values: equal values
// (both unreachable at +Inf included) are 0 apart, and a NaN on either
// side or mismatched infinities are +Inf apart, so they never pass as
// agreement.
func absDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	if d := math.Abs(a - b); !math.IsNaN(d) {
		return d
	}
	return math.Inf(1)
}

// maxAbsDiffScalar compares value arrays.
func maxAbsDiffScalar(a, b []float64) float64 {
	worst := 0.0
	for v := range a {
		worst = max(worst, absDiff(a[v], b[v]))
	}
	return worst
}

func maxAbsDiffVector(a, b [][]float64) float64 {
	worst := 0.0
	for v := range a {
		worst = max(worst, maxAbsDiffScalar(a[v], b[v]))
	}
	return worst
}

func parseSync(s string) (wal.SyncPolicy, error) {
	switch s {
	case "every":
		return wal.SyncEveryBatch, nil
	case "interval":
		return wal.SyncInterval, nil
	case "none":
		return wal.SyncNone, nil
	default:
		return 0, fmt.Errorf("unknown sync policy %q", s)
	}
}

func runTriangles(c *cli) error {
	start := time.Now()
	tc := algorithms.NewTriangleCounter(c.g)
	c.log.Info("initial count", "cycles", tc.Triangles(), "duration", time.Since(start).Round(time.Microsecond))
	for i, b := range c.batches {
		start = time.Now()
		tc.Apply(b)
		c.log.Info("batch applied",
			"seq", i+1, "add", len(b.Add), "del", len(b.Del),
			"cycles", tc.Triangles(), "duration", time.Since(start).Round(time.Microsecond))
	}
	for _, vt := range tc.TopTriangleVertices(c.top) {
		fmt.Fprintf(c.stdout, "  vertex %d closes %d cycles\n", vt.Vertex, vt.Closures)
	}
	return nil
}

func printTop(w io.Writer, name string, vals []float64, k int) {
	type pair struct {
		v graph.VertexID
		x float64
	}
	ps := make([]pair, len(vals))
	for i, x := range vals {
		ps[i] = pair{graph.VertexID(i), x}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].x > ps[j].x })
	if k > len(ps) {
		k = len(ps)
	}
	fmt.Fprintf(w, "top %d by %s:\n", k, name)
	for _, p := range ps[:k] {
		fmt.Fprintf(w, "  vertex %-8d %g\n", p.v, p.x)
	}
}

func printVector(w io.Writer, name string, vals [][]float64, k int) {
	if k > len(vals) {
		k = len(vals)
	}
	fmt.Fprintf(w, "first %d %s vectors:\n", k, name)
	for v := 0; v < k; v++ {
		fmt.Fprintf(w, "  vertex %-8d %v\n", v, vals[v])
	}
}

// newLogger builds the progress logger on w (stderr), keeping stdout
// for result output (-top, -validate).
func newLogger(format string, w io.Writer) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, nil)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
