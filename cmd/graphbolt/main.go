// Command graphbolt runs a streaming graph computation: it loads a base
// graph, computes the initial result, then applies mutation batches from
// a stream file (graphgen's format), reporting per-batch latency and
// work.
//
// Usage:
//
//	graphbolt -graph base.el -stream stream.el -algo pagerank
//	graphbolt -graph base.el -algo sssp -source 0 -top 10
//	graphbolt -graph base.el -stream stream.el -wal-dir state/ -checkpoint-every 10
//	graphbolt -graph base.el -stream stream.el -metrics-addr localhost:9090
//
// With -wal-dir, every batch is journaled to a write-ahead log before it
// is applied and the engine is checkpointed every -checkpoint-every
// batches; restarting the command with the same -wal-dir recovers the
// pre-crash state and continues the stream from there.
//
// With -metrics-addr, an HTTP server exposes /metrics (Prometheus text),
// /metrics.json, /healthz (JSON health: 200 while healthy or degraded,
// 503 once failed), /debug/vars (expvar) and /debug/pprof/* while the
// stream runs, and every layer (engine, journal, checkpoints, parallel
// loops) reports into the one registry the command builds.
//
// With -serve, the stream is ingested through the concurrent serving
// facade instead of the synchronous loop: batches flow through a
// bounded, coalescing single-writer queue while -readers goroutines
// concurrently sample published result snapshots, reporting read
// throughput and staleness alongside ingest progress:
//
//	graphbolt -graph base.el -stream stream.el -serve -readers 8
//
// With -retain N, the last N published generations stay addressable for
// point-in-time reads (Server.SnapshotAt, Server.Diff); -query-cache B
// gives -serve mode a B-byte per-generation cache memoizing derived
// reads, with hit/miss/bytes visible under graphbolt_qcache_* in
// /metrics:
//
//	graphbolt -graph base.el -stream stream.el -serve -retain 16 -query-cache 1048576
//
// With -flight, every batch gets a trace ID at submission and the
// flight recorder keeps the last -flight-depth lifecycle events
// (submission, queueing, coalescing, journaling with fsync latency,
// apply, publication) in a mutex-guarded ring. The ring is dumped to
// the log on any transition to degraded/failed, and is served as JSON
// at /debug/flight (filter with ?trace=ID, ?kind=NAME, ?dump=last):
//
//	graphbolt -graph base.el -stream stream.el -serve -flight
//
// With -api-addr, -serve mode exposes the HTTP/JSON query API —
// /v1/snapshot, /v1/snapshot/{gen}, /v1/topk, /v1/value/{vertex},
// /v1/diff — plus /healthz and the /metrics family on that address.
// When -wal-dir is also set, the same listener serves the replication
// stream at GET /v1/wal: every journaled record, CRC-framed exactly as
// on disk, streamed to followers and resumable by sequence number:
//
//	graphbolt -graph base.el -stream stream.el -serve -wal-dir state/ -api-addr :8080
//
// With -follow, the process runs as a read replica instead: it tails
// the leader's /v1/wal stream, replays every record through the same
// engine (re-journaling locally when -wal-dir is set, so a restart
// resumes seq-exact from disk), refuses writes, and serves the same
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
// initial run, each applied batch); -log-format selects text or JSON.
// Result output (-top, -validate) stays on stdout.
package main

import (
	"context"
	"flag"
	"fmt"
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
	"repro/internal/qcache"
	"repro/internal/stream"
	"repro/internal/wal"
)

func main() {
	var (
		graphPath   = flag.String("graph", "", "base graph edge-list file (required)")
		streamPath  = flag.String("stream", "", "mutation stream file (optional)")
		algo        = flag.String("algo", "pagerank", "pagerank | labelprop | coem | bp | cf | sssp | bfs | cc | triangles")
		mode        = flag.String("mode", "graphbolt", "graphbolt | graphbolt-rp | reset | ligra | naive")
		iterations  = flag.Int("iterations", 10, "BSP iterations")
		horizon     = flag.Int("horizon", 0, "horizontal pruning cut-off (0 = iterations)")
		source      = flag.Uint("source", 0, "source vertex for sssp/bfs")
		top         = flag.Int("top", 5, "print the top-k vertices by value")
		validate    = flag.Bool("validate", false, "after the stream, cross-check against a from-scratch run")
		walDir      = flag.String("wal-dir", "", "directory for the write-ahead log and checkpoints (enables durability + crash recovery)")
		ckptEvery   = flag.Int("checkpoint-every", 10, "batches between automatic checkpoints (with -wal-dir; 0 = only journal)")
		syncMode    = flag.String("sync", "every", "journal sync policy: every | interval | none (with -wal-dir)")
		metricsAt   = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. localhost:9090)")
		logFormat   = flag.String("log-format", "text", "progress log format: text | json")
		serveMode   = flag.Bool("serve", false, "ingest the stream through the concurrent serving facade while -readers goroutines query snapshots")
		readers     = flag.Int("readers", 4, "concurrent snapshot readers in -serve mode")
		shards      = flag.Int("shards", 1, "fan each batch out over N partition shards, each with its own engine, joined before the merged snapshot publishes (with -serve; incompatible with -wal-dir)")
		queueDepth  = flag.Int("queue-depth", 0, "ingest queue bound in -serve mode (0 = default)")
		retain      = flag.Int("retain", 1, "published generations kept addressable for point-in-time reads (SnapshotAt)")
		queryCache  = flag.Int64("query-cache", 0, "per-generation query cache budget in bytes for -serve mode (0 = off)")
		flightOn    = flag.Bool("flight", false, "enable the batch-lifecycle flight recorder: trace IDs on every batch, /debug/flight, dumps on degrade")
		flightDepth = flag.Int("flight-depth", 0, "flight recorder ring capacity in events (0 = default 4096; with -flight)")
		apiAddr     = flag.String("api-addr", "", "serve the HTTP/JSON query API (/v1/snapshot, /v1/topk, /v1/value, /v1/diff) on this address; with -serve -wal-dir also the replication stream at /v1/wal")
		follow      = flag.String("follow", "", "run as a read replica tailing this leader URL's /v1/wal stream (e.g. http://leader:8080); refuses writes, serves the query API on -api-addr")
		stallTO     = flag.Duration("stall-timeout", 0, "follower stream-stall watchdog: drop and re-dial a connection that carries neither records nor heartbeats for this long (0 = default 15s; negative disables; with -follow)")
	)
	flag.Parse()
	logger, err := newLogger(*logFormat)
	if err != nil {
		fatal("%v", err)
	}
	if *graphPath == "" {
		fatal("need -graph")
	}
	if *follow != "" {
		if *serveMode || *streamPath != "" || *shards > 1 {
			fatal("-follow is a read replica: it takes no -stream, -serve or -shards")
		}
	} else if *apiAddr != "" && !*serveMode {
		fatal("-api-addr requires -serve (or -follow)")
	}
	if *shards > 1 {
		if !*serveMode {
			fatal("-shards requires -serve")
		}
		if *walDir != "" {
			// Sharded serving is in-memory only.
			fatal("-shards is incompatible with -wal-dir")
		}
	}

	// The metrics mux starts before the serving facade exists, so
	// /healthz reads the tracker through an atomic proxy that -serve
	// mode fills in once the server is constructed. Until then (and in
	// non-serve mode) the nil tracker reports healthy.
	var healthProxy atomic.Pointer[health.Tracker]
	var reg *obs.Registry
	if *metricsAt != "" {
		reg = graphbolt.NewMetricsRegistry()
		graphbolt.RegisterMetrics(reg)
	}
	// The recorder is built before the metrics mux so /debug/flight can
	// serve it from the start; with -flight off the nil recorder is inert
	// and its route answers 404.
	var rec *flight.Recorder
	if *flightOn {
		rec = flight.New(flight.Options{Depth: *flightDepth, Logger: logger, Metrics: reg})
		logger.Info("flight recorder enabled", "depth", rec.Depth())
	}
	if *metricsAt != "" {
		ln, err := net.Listen("tcp", *metricsAt)
		if err != nil {
			fatal("metrics listener: %v", err)
		}
		logger.Info("metrics", "addr", ln.Addr().String(),
			"endpoints", "/metrics /metrics.json /healthz /debug/flight /debug/vars /debug/pprof/")
		mux := obs.HandlerWith(reg, map[string]http.Handler{
			"/healthz": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				health.Handler(healthProxy.Load()).ServeHTTP(w, r)
			}),
			"/debug/flight": rec.Handler(),
		})
		go func() {
			if err := http.Serve(ln, mux); err != nil {
				logger.Error("metrics server", "err", err)
			}
		}()
	}
	// The replication log is fed by the durable layer's OnRecord hook
	// (wired below) and served at GET /v1/wal on the -api-addr listener.
	// It exists only on a durable leader: without a journal there are no
	// sequence numbers to ship.
	var rlog *graphbolt.ReplicationLog
	if *apiAddr != "" && *follow == "" && *walDir != "" {
		// The checkpoint hint reads the directory, not the engine, so the
		// log can advertise re-seedability before the engine is open.
		rlog = graphbolt.NewReplicationLog(graphbolt.ReplicationLogOptions{
			Logger:        logger,
			CheckpointSeq: graphbolt.CheckpointDir(*walDir).CheckpointSeq,
		})
		defer rlog.Close()
	}

	var dcfg *durableConfig
	if *walDir != "" {
		policy, err := parseSync(*syncMode)
		if err != nil {
			fatal("%v", err)
		}
		dcfg = &durableConfig{dir: *walDir, every: *ckptEvery, sync: policy, metrics: reg, flight: rec, log: logger, rlog: rlog}
	}

	// The -api-addr listener starts before the serving facade exists:
	// /v1/* queries answer 503 until -serve constructs the server and
	// fills the proxy in, while /v1/wal (durable leaders) streams
	// immediately — a follower may connect before ingest starts.
	var queryProxy atomic.Pointer[http.Handler]
	if *apiAddr != "" && *follow == "" {
		ln, err := net.Listen("tcp", *apiAddr)
		if err != nil {
			fatal("api listener: %v", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
			if h := queryProxy.Load(); h != nil {
				(*h).ServeHTTP(w, r)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"server not started yet"}`)
		})
		if rlog != nil {
			mux.Handle("GET /v1/wal", rlog.Handler())
			// Followers whose resume position was compacted away re-seed
			// from here (404 until the first checkpoint lands on disk).
			mux.Handle("GET /v1/checkpoint", graphbolt.CheckpointHandler(graphbolt.CheckpointDir(*walDir)))
		}
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			health.Handler(healthProxy.Load()).ServeHTTP(w, r)
		})
		logger.Info("query api", "addr", ln.Addr().String(), "replication", rlog != nil)
		go func() {
			if err := http.Serve(ln, mux); err != nil {
				logger.Error("api server", "err", err)
			}
		}()
	}

	f, err := os.Open(*graphPath)
	if err != nil {
		fatal("%v", err)
	}
	g, err := graph.ReadEdgeList(f)
	f.Close()
	if err != nil {
		fatal("load: %v", err)
	}
	logger.Info("loaded graph", "path", *graphPath, "vertices", g.NumVertices(), "edges", g.NumEdges())

	var batches []graph.Batch
	if *streamPath != "" {
		sf, err := os.Open(*streamPath)
		if err != nil {
			fatal("%v", err)
		}
		batches, err = stream.ReadBatches(sf)
		sf.Close()
		if err != nil {
			fatal("stream: %v", err)
		}
		logger.Info("loaded stream", "path", *streamPath, "batches", len(batches))
	}

	m, err := core.ParseMode(*mode)
	if err != nil {
		fatal("%v", err)
	}
	opts := core.Options{Mode: m, MaxIterations: *iterations, Horizon: *horizon, Retain: *retain, Metrics: reg, Flight: rec}

	if *follow != "" {
		runFollower(*algo, g, opts, followConfig{
			leaderURL:    *follow,
			apiAddr:      *apiAddr,
			source:       graph.VertexID(*source),
			top:          *top,
			cacheBytes:   *queryCache,
			durable:      dcfg,
			metrics:      reg,
			logger:       logger,
			stallTimeout: *stallTO,
			flight:       rec,
			setHealth:    healthProxy.Store,
		})
		return
	}

	if *algo == "triangles" {
		if dcfg != nil {
			fatal("-wal-dir is not supported with -algo triangles")
		}
		if *serveMode {
			fatal("-serve is not supported with -algo triangles")
		}
		runTriangles(g, batches, *top, logger)
		return
	}

	run, err := buildRunner(*algo, g, opts, graph.VertexID(*source), *top, dcfg)
	if err != nil {
		fatal("%v", err)
	}
	start := time.Now()
	st, skip := run.run()
	logger.Info("initial run",
		"mode", m.String(),
		"iterations", st.Iterations,
		"edge_computations", st.EdgeComputations,
		"duration", time.Since(start).Round(time.Microsecond))
	seqBase := skip
	if skip > 0 {
		logger.Info("recovered state covers stream prefix", "batches_skipped", skip)
		if skip > uint64(len(batches)) {
			skip = uint64(len(batches))
		}
		batches = batches[skip:]
	}
	if *serveMode {
		// The server owns the single-writer apply loop and (for -wal-dir)
		// the journal: Close drains the queue and closes the journal, so
		// run.close is not called on this path.
		sc := serveConfig{
			readers:     *readers,
			shards:      *shards,
			queueDepth:  *queueDepth,
			cacheBytes:  *queryCache,
			metrics:     reg,
			logger:      logger,
			health:      &healthProxy,
			flight:      rec,
			replicating: rlog != nil,
		}
		if *apiAddr != "" {
			sc.api = &queryProxy
		}
		if err := run.serve(sc, batches); err != nil {
			fatal("serve: %v", err)
		}
	} else {
		for i, b := range batches {
			start = time.Now()
			st, err = run.apply(b)
			if err != nil {
				fatal("batch %d: %v", i+1, err)
			}
			logger.Info("batch applied",
				"seq", seqBase+uint64(i)+1,
				"add", len(b.Add),
				"del", len(b.Del),
				"iterations", st.Iterations,
				"refine_iterations", st.RefineIterations,
				"hybrid_iterations", st.HybridIterations,
				"edge_computations", st.EdgeComputations,
				"duration", time.Since(start).Round(time.Microsecond),
				"mode", m.String())
		}
		if err := run.close(); err != nil {
			fatal("%v", err)
		}
	}
	if *serveMode && *shards > 1 {
		// Sharded serving mutates per-shard engines, not the base
		// engine the runner reports from.
		logger.Info("sharded serve: skipping -top report and -validate (state lives in the shard engines)")
		return
	}
	run.report()
	if *validate {
		worst := run.validate()
		fmt.Printf("validation: max |streamed - scratch| = %.3e\n", worst)
		if worst > 1e-6 {
			fmt.Println("WARNING: divergence above 1e-6 (expected only with a large -tolerance)")
		}
	}
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

// runner adapts the differently-typed engines. run performs the initial
// computation (or recovery) and reports how many stream batches the
// recovered state already covers. serve ingests the batches through the
// concurrent serving facade instead of apply (and then owns shutdown,
// including the journal).
type runner struct {
	run      func() (core.Stats, uint64)
	apply    func(graph.Batch) (core.Stats, error)
	close    func() error
	serve    func(serveConfig, []graph.Batch) error
	report   func()
	validate func() (worst float64)
}

// serveConfig carries the -serve flag family. health, when non-nil, is
// the /healthz proxy the server's tracker is published through; api,
// when non-nil, receives the query API handler once the server exists.
type serveConfig struct {
	readers     int
	shards      int
	queueDepth  int
	cacheBytes  int64
	metrics     *obs.Registry
	logger      *slog.Logger
	health      *atomic.Pointer[health.Tracker]
	flight      *flight.Recorder              // nil unless -flight
	api         *atomic.Pointer[http.Handler] // nil unless -api-addr
	replicating bool                          // a replication log is attached to the journal
}

// durableConfig carries the -wal-dir flag family plus the command's
// instrumentation hooks. rlog, when non-nil, receives every journaled
// record (OnRecord) and the checkpoint floor after recovery.
type durableConfig struct {
	dir     string
	every   int
	sync    wal.SyncPolicy
	metrics *obs.Registry
	flight  *flight.Recorder
	log     *slog.Logger
	rlog    *graphbolt.ReplicationLog
}

// wire connects an engine to the runner entry points, inserting the
// durable journaling layer when -wal-dir is set. The returned serve
// closure ingests batches through the concurrent facade; it must only be
// invoked after run (which, for the durable path, opens the journal).
func wire[V, A any](eng *core.Engine[V, A], cfg *durableConfig) (func() (core.Stats, uint64), func(graph.Batch) (core.Stats, error), func() error, func(serveConfig, []graph.Batch) error) {
	var d *durable.Engine[V, A]
	sv := func(sc serveConfig, batches []graph.Batch) error {
		return serveBatches(eng, d, sc, batches)
	}
	if cfg == nil {
		run := func() (core.Stats, uint64) { return eng.Run(), 0 }
		return run, eng.ApplyBatch, func() error { return nil }, sv
	}
	run := func() (core.Stats, uint64) {
		var onRecord func(wal.Record)
		if cfg.rlog != nil {
			onRecord = cfg.rlog.Append
		}
		var err error
		d, err = durable.Open(eng, cfg.dir, durable.Options{
			CheckpointEvery: cfg.every,
			WAL:             wal.Options{Sync: cfg.sync},
			Metrics:         cfg.metrics,
			Flight:          cfg.flight,
			OnRecord:        onRecord,
		})
		if err != nil {
			fatal("durable: %v", err)
		}
		if cfg.rlog != nil {
			// Records replayed from the WAL suffix arrived through
			// OnRecord above; the checkpoint-covered prefix is the floor.
			cfg.rlog.SetFloor(d.Recovery().SnapshotSeq)
		}
		if info := d.Recovery(); info.FromSnapshot || info.Replayed > 0 {
			cfg.log.Info("recovered",
				"dir", cfg.dir,
				"from_snapshot", info.FromSnapshot,
				"snapshot_seq", info.SnapshotSeq,
				"replayed", info.Replayed,
				"skipped", info.Skipped,
				"torn_tail", info.WAL.Truncated,
				"dropped_bytes", info.WAL.DroppedBytes)
		}
		return eng.TotalStats(), d.Seq()
	}
	apply := func(b graph.Batch) (core.Stats, error) { return d.ApplyBatch(b) }
	cl := func() error { return d.Close() }
	return run, apply, cl, sv
}

// serveBatches streams the batches through a graphbolt.Server while
// sc.readers goroutines concurrently sample published snapshots,
// then drains and closes the server (journal included, when durable).
func serveBatches[V, A any](eng *core.Engine[V, A], d *durable.Engine[V, A], sc serveConfig, batches []graph.Batch) error {
	logger := sc.logger
	var applyCalls, appliedBatches atomic.Int64
	opts := graphbolt.ServerOptions{
		Shards:          sc.shards,
		QueueDepth:      sc.queueDepth,
		QueryCacheBytes: sc.cacheBytes,
		Logger:          logger,
		Flight:          sc.flight,
		// Resuming an interrupted stream relies on journal seq == stream
		// position (skip = d.Seq() above), so the durable path must
		// journal exactly one record per stream batch.
		DisableCoalescing: d != nil,
		Metrics:           sc.metrics,
		OnApply: func(ap graphbolt.Applied) {
			applyCalls.Add(1)
			appliedBatches.Add(int64(ap.Batches))
			logger.Info("batches applied",
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
		logger.Warn("health transition", "from", from.String(), "to", to.String(), "cause", cause)
	})
	if sc.health != nil {
		sc.health.Store(srv.Health())
	}
	if sc.api != nil {
		if h := queryHandlerFor(srv); h != nil {
			sc.api.Store(&h)
		} else {
			logger.Warn("query api: no handler for this algorithm's value type (scalar-valued algorithms only)")
		}
	}

	var (
		queries       atomic.Int64
		maxStaleNanos atomic.Int64
		done          = make(chan struct{})
		wg            sync.WaitGroup
	)
	for r := 0; r < sc.readers; r++ {
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
				queries.Add(1)
				// Exercise the per-generation query cache with a point
				// lookup on a rotating vertex: the first reader of each
				// (generation, vertex) pair fills the entry, later ones
				// hit (visible as graphbolt_qcache_* in /metrics).
				if n := s.Graph.NumVertices(); n > 0 {
					qcache.Value(srv.Cache(), s, graph.VertexID(int(queries.Load())%n))
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
	for i := range batches {
		// A retryable refusal (full queue under Reject) is the server
		// asking this producer to slow down: honor the hint and resubmit
		// the same batch — order is preserved because this loop is the
		// only producer.
		for {
			_, err := srv.Submit(ctx, batches[i])
			if err == nil {
				break
			}
			if after, ok := graphbolt.RetryAfter(err); ok {
				logger.Info("submission shed, backing off",
					"batch", i+1, "retry_after", after, "err", err)
				time.Sleep(after)
				continue
			}
			close(done)
			wg.Wait()
			return fmt.Errorf("submit batch %d: %w", i+1, err)
		}
	}
	if _, err := srv.Sync(ctx); err != nil {
		close(done)
		wg.Wait()
		return fmt.Errorf("sync: %w", err)
	}
	ingest := time.Since(start)
	close(done)
	wg.Wait()
	if err := srv.Close(ctx); err != nil {
		return err
	}
	oldest, newest := srv.RetainedGenerations()
	logger.Info("serve complete",
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
		logger.Info("flight summary",
			"events", fr.Events(),
			"dropped", fr.Dropped(),
			"dumps", fr.Dumps(),
			"slow_batches", fr.SlowBatches())
	}
	return nil
}

// queryHandlerFor builds the /v1/* query handler for the server when
// its value type supports ordering (QueryHandler requires cmp.Ordered
// for /v1/topk); vector-valued servers get nil.
func queryHandlerFor[V, A any](srv *graphbolt.Server[V, A]) http.Handler {
	switch s := any(srv).(type) {
	case *graphbolt.Server[float64, float64]:
		return graphbolt.QueryHandler(s)
	case *graphbolt.Server[float64, algorithms.CoEMAgg]:
		return graphbolt.QueryHandler(s)
	}
	return nil
}

// followConfig carries the -follow flag family.
type followConfig struct {
	leaderURL    string
	apiAddr      string
	source       graph.VertexID // -source, for sssp/bfs
	top          int
	cacheBytes   int64
	durable      *durableConfig // nil unless -wal-dir (a restartable follower)
	metrics      *obs.Registry
	logger       *slog.Logger
	stallTimeout time.Duration         // -stall-timeout
	flight       *flight.Recorder      // nil unless -flight
	setHealth    func(*health.Tracker) // publishes the tracker to /healthz
}

// runFollower dispatches -follow mode to the concretely-typed follow
// loop. Only scalar-valued algorithms are supported: the query API's
// top-k endpoint needs an ordered value type.
func runFollower(algo string, g *graph.Graph, opts core.Options, fc followConfig) {
	switch algo {
	case "pagerank":
		eng, err := core.NewEngine[float64, float64](g, algorithms.NewPageRank(), opts)
		if err != nil {
			fatal("%v", err)
		}
		follow(eng, fc, "rank")
	case "coem":
		n := g.NumVertices()
		eng, err := core.NewEngine[float64, algorithms.CoEMAgg](g,
			algorithms.NewCoEM([]graph.VertexID{0}, []graph.VertexID{graph.VertexID(n - 1)}), opts)
		if err != nil {
			fatal("%v", err)
		}
		follow(eng, fc, "score")
	case "sssp":
		eng, err := core.NewEngine[float64, float64](g, algorithms.NewSSSP(fc.source), opts)
		if err != nil {
			fatal("%v", err)
		}
		follow(eng, fc, "distance")
	case "bfs":
		eng, err := core.NewEngine[float64, float64](g, algorithms.NewBFS(fc.source), opts)
		if err != nil {
			fatal("%v", err)
		}
		follow(eng, fc, "hops")
	case "cc":
		eng, err := core.NewEngine[float64, float64](g, algorithms.NewConnectedComponents(), opts)
		if err != nil {
			fatal("%v", err)
		}
		follow(eng, fc, "component")
	default:
		fatal("-follow supports scalar-valued algorithms (pagerank, coem, sssp, bfs, cc), not %q", algo)
	}
}

// follow runs the replica loop in the foreground: build the follower
// (durable when -wal-dir is set), serve the query API, tail the leader
// until SIGINT/SIGTERM or a terminal stream fault.
func follow[A any](eng *core.Engine[float64, A], fc followConfig, valueName string) {
	logger := fc.logger
	tracker := health.NewTracker(fc.metrics)
	if fc.setHealth != nil {
		fc.setHealth(tracker)
	}
	fopts := graphbolt.FollowerOptions{
		Metrics:         fc.metrics,
		QueryCacheBytes: fc.cacheBytes,
		Logger:          logger,
		StallTimeout:    fc.stallTimeout,
		Health:          tracker,
		Flight:          fc.flight,
	}
	var f *graphbolt.Follower[float64, A]
	var err error
	if fc.durable != nil {
		d, derr := durable.Open(eng, fc.durable.dir, durable.Options{
			CheckpointEvery: fc.durable.every,
			WAL:             wal.Options{Sync: fc.durable.sync},
			Metrics:         fc.durable.metrics,
			Flight:          fc.durable.flight,
		})
		if derr != nil {
			fatal("durable: %v", derr)
		}
		defer d.Close()
		if info := d.Recovery(); info.FromSnapshot || info.Replayed > 0 {
			logger.Info("follower recovered", "dir", fc.durable.dir, "resume_from", d.Seq())
		} else {
			logger.Info("follower bootstrap", "mode", "durable", "dir", fc.durable.dir, "resume_from", d.Seq())
		}
		f, err = graphbolt.NewDurableFollower(d, fc.leaderURL, fopts)
	} else {
		// No -wal-dir: the resume position lives only in memory, so every
		// process start is a bootstrap from sequence 0 — served by the
		// leader's log when it still covers it, or by a shipped checkpoint
		// once the log has been compacted.
		logger.Info("follower bootstrap", "mode", "in-memory", "resume_from", 0,
			"note", "no -wal-dir: restart re-streams from 0 or re-seeds from the leader's checkpoint")
		f, err = graphbolt.NewFollower(eng, nil, fc.leaderURL, fopts)
	}
	if err != nil {
		fatal("follow: %v", err)
	}
	if fc.apiAddr != "" {
		ln, lerr := net.Listen("tcp", fc.apiAddr)
		if lerr != nil {
			fatal("api listener: %v", lerr)
		}
		api := graphbolt.FollowerQueryHandler(f)
		var h http.Handler = api
		if fc.metrics != nil {
			h = obs.HandlerWith(fc.metrics, map[string]http.Handler{"/v1/": api})
		}
		logger.Info("follower query api", "addr", ln.Addr().String())
		go func() {
			if serr := http.Serve(ln, h); serr != nil {
				logger.Error("api server", "err", serr)
			}
		}()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger.Info("following", "leader", fc.leaderURL, "durable", fc.durable != nil)
	err = f.Run(ctx)
	if ctx.Err() == nil && err != nil {
		fatal("follow: %v", err)
	}
	logger.Info("follower stopped",
		"applied", f.AppliedSeq(),
		"leader_seq", f.LeaderSeq(),
		"lag", f.Lag(),
		"records", f.Records(),
		"resumes", f.Resumes(),
		"reseeds", f.Reseeds(),
		"stalls", f.Stalls())
	printTop(valueName, eng.Values(), fc.top)
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

func buildRunner(algo string, g *graph.Graph, opts core.Options, source graph.VertexID, top int, cfg *durableConfig) (*runner, error) {
	scalarReport := func(name string, eng *core.Engine[float64, float64]) func() {
		return func() { printTop(name, eng.Values(), top) }
	}
	scalarValidate := func(eng *core.Engine[float64, float64], p core.Program[float64, float64]) func() float64 {
		return func() float64 {
			o := opts
			o.Mode = core.ModeReset
			fresh, err := core.NewEngine[float64, float64](eng.Graph(), p, o)
			if err != nil {
				fatal("%v", err)
			}
			fresh.Run()
			return maxAbsDiffScalar(eng.Values(), fresh.Values())
		}
	}
	vectorValidate := func(eng *core.Engine[[]float64, []float64], p core.Program[[]float64, []float64]) func() float64 {
		return func() float64 {
			o := opts
			o.Mode = core.ModeReset
			fresh, err := core.NewEngine[[]float64, []float64](eng.Graph(), p, o)
			if err != nil {
				fatal("%v", err)
			}
			fresh.Run()
			return maxAbsDiffVector(eng.Values(), fresh.Values())
		}
	}
	switch algo {
	case "pagerank":
		eng, err := core.NewEngine[float64, float64](g, algorithms.NewPageRank(), opts)
		if err != nil {
			return nil, err
		}
		run, apply, cl, sv := wire(eng, cfg)
		return &runner{run, apply, cl, sv, scalarReport("rank", eng), scalarValidate(eng, algorithms.NewPageRank())}, nil
	case "coem":
		n := g.NumVertices()
		eng, err := core.NewEngine[float64, algorithms.CoEMAgg](g,
			algorithms.NewCoEM([]graph.VertexID{0}, []graph.VertexID{graph.VertexID(n - 1)}), opts)
		if err != nil {
			return nil, err
		}
		coemValidate := func() float64 {
			o := opts
			o.Mode = core.ModeReset
			fresh, err := core.NewEngine[float64, algorithms.CoEMAgg](eng.Graph(),
				algorithms.NewCoEM([]graph.VertexID{0}, []graph.VertexID{graph.VertexID(n - 1)}), o)
			if err != nil {
				fatal("%v", err)
			}
			fresh.Run()
			return maxAbsDiffScalar(eng.Values(), fresh.Values())
		}
		run, apply, cl, sv := wire(eng, cfg)
		return &runner{run, apply, cl, sv, func() { printTop("score", eng.Values(), top) }, coemValidate}, nil
	case "labelprop":
		eng, err := core.NewEngine[[]float64, []float64](g,
			algorithms.NewLabelProp(3, map[graph.VertexID]int{0: 0, 1: 1, 2: 2}), opts)
		if err != nil {
			return nil, err
		}
		run, apply, cl, sv := wire(eng, cfg)
		return &runner{run, apply, cl, sv, func() { printVector("label", eng.Values(), top) },
			vectorValidate(eng, algorithms.NewLabelProp(3, map[graph.VertexID]int{0: 0, 1: 1, 2: 2}))}, nil
	case "bp":
		eng, err := core.NewEngine[[]float64, []float64](g, algorithms.NewBeliefProp(3), opts)
		if err != nil {
			return nil, err
		}
		run, apply, cl, sv := wire(eng, cfg)
		return &runner{run, apply, cl, sv, func() { printVector("belief", eng.Values(), top) },
			vectorValidate(eng, algorithms.NewBeliefProp(3))}, nil
	case "cf":
		eng, err := core.NewEngine[[]float64, algorithms.CFAgg](g, algorithms.NewCollabFilter(4), opts)
		if err != nil {
			return nil, err
		}
		cfValidate := func() float64 {
			o := opts
			o.Mode = core.ModeReset
			fresh, err := core.NewEngine[[]float64, algorithms.CFAgg](eng.Graph(), algorithms.NewCollabFilter(4), o)
			if err != nil {
				fatal("%v", err)
			}
			fresh.Run()
			return maxAbsDiffVector(eng.Values(), fresh.Values())
		}
		run, apply, cl, sv := wire(eng, cfg)
		return &runner{run, apply, cl, sv, func() { printVector("factors", eng.Values(), top) }, cfValidate}, nil
	case "sssp":
		eng, err := core.NewEngine[float64, float64](g, algorithms.NewSSSP(source), opts)
		if err != nil {
			return nil, err
		}
		run, apply, cl, sv := wire(eng, cfg)
		return &runner{run, apply, cl, sv, scalarReport("distance", eng), scalarValidate(eng, algorithms.NewSSSP(source))}, nil
	case "bfs":
		eng, err := core.NewEngine[float64, float64](g, algorithms.NewBFS(source), opts)
		if err != nil {
			return nil, err
		}
		run, apply, cl, sv := wire(eng, cfg)
		return &runner{run, apply, cl, sv, scalarReport("hops", eng), scalarValidate(eng, algorithms.NewBFS(source))}, nil
	case "cc":
		eng, err := core.NewEngine[float64, float64](g, algorithms.NewConnectedComponents(), opts)
		if err != nil {
			return nil, err
		}
		run, apply, cl, sv := wire(eng, cfg)
		return &runner{run, apply, cl, sv, scalarReport("component", eng), scalarValidate(eng, algorithms.NewConnectedComponents())}, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", algo)
	}
}

func runTriangles(g *graph.Graph, batches []graph.Batch, top int, logger *slog.Logger) {
	start := time.Now()
	tc := algorithms.NewTriangleCounter(g)
	logger.Info("initial count", "cycles", tc.Triangles(), "duration", time.Since(start).Round(time.Microsecond))
	for i, b := range batches {
		start = time.Now()
		tc.Apply(b)
		logger.Info("batch applied",
			"seq", i+1, "add", len(b.Add), "del", len(b.Del),
			"cycles", tc.Triangles(), "duration", time.Since(start).Round(time.Microsecond))
	}
	for _, vt := range tc.TopTriangleVertices(top) {
		fmt.Printf("  vertex %d closes %d cycles\n", vt.Vertex, vt.Closures)
	}
}

func printTop(name string, vals []float64, k int) {
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
	fmt.Printf("top %d by %s:\n", k, name)
	for _, p := range ps[:k] {
		fmt.Printf("  vertex %-8d %g\n", p.v, p.x)
	}
}

func printVector(name string, vals [][]float64, k int) {
	if k > len(vals) {
		k = len(vals)
	}
	fmt.Printf("first %d %s vectors:\n", k, name)
	for v := 0; v < k; v++ {
		fmt.Printf("  vertex %-8d %v\n", v, vals[v])
	}
}

// newLogger builds the progress logger on stderr, keeping stdout for
// result output (-top, -validate).
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
