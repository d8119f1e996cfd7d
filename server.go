package graphbolt

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/health"
	"repro/internal/partition"
	"repro/internal/qcache"
	"repro/internal/replica"
	"repro/internal/serve"
)

// ResultSnapshot is the immutable, atomically published read view of a
// completed computation: graph generation, vertex values, BSP level and
// cumulative stats. Engine.Snapshot, Server.Snapshot and Server.Query
// hand these out; readers may hold one indefinitely while mutations
// stream.
type ResultSnapshot[V any] = core.ResultSnapshot[V]

// SubmitPolicy selects what Server.Submit does when the ingest queue is
// full.
type SubmitPolicy = serve.Policy

const (
	// SubmitBlock makes Submit wait for queue space (the default):
	// backpressure propagates to producers.
	SubmitBlock = serve.Block
	// SubmitReject makes Submit fail fast with ErrQueueFull.
	SubmitReject = serve.Reject
)

// Ingest failure sentinels, for errors.Is.
var (
	// ErrQueueFull reports a Submit rejected under SubmitReject. The
	// returned error wraps this sentinel in a *RetryableError carrying a
	// backoff hint; extract it with RetryAfter.
	ErrQueueFull = serve.ErrQueueFull
	// ErrServerClosed reports a Submit or Wait after Close.
	ErrServerClosed = serve.ErrClosed
	// ErrDegraded reports a Submit refused (or a held batch failed)
	// because the server is in degraded read-only mode: the journal
	// faulted and recovery is being retried in the background. Reads
	// keep working; resubmit after the server returns to HealthHealthy.
	ErrDegraded = serve.ErrDegraded
)

// RetryableError is the shape of a load-induced Submit refusal
// (ErrQueueFull under SubmitReject): a sentinel for errors.Is plus a
// suggested client backoff. See RetryAfter.
type RetryableError = serve.RetryableError

// RetryAfter extracts the backoff hint from a Submit error, reporting
// whether the error is a retryable (load-induced, transient) refusal:
//
//	if after, ok := graphbolt.RetryAfter(err); ok {
//	    time.Sleep(after)
//	    // resubmit
//	}
func RetryAfter(err error) (time.Duration, bool) { return serve.RetryAfter(err) }

// HealthState is the server's coarse operating state.
type HealthState = health.State

const (
	// HealthHealthy: writes and reads both serving.
	HealthHealthy = health.Healthy
	// HealthDegraded: reads serving, writes failing fast with
	// ErrDegraded while recovery retries in the background.
	HealthDegraded = health.Degraded
	// HealthFailed: the apply loop died; engine state is undefined.
	HealthFailed = health.Failed
)

// HealthInfo is a point-in-time health report: state, cause (nil when
// healthy) and when the state was entered.
type HealthInfo = health.Info

// HealthTracker publishes health state transitions; obtain a server's
// via Server.Health.
type HealthTracker = health.Tracker

// PoisonBatch records one quarantined batch: its submission sequence,
// the offending batch, the validation error and when it was rejected.
type PoisonBatch = serve.PoisonBatch

// BackoffPolicy paces degraded-mode recovery retries: capped
// exponential with jitter. The zero value uses sane defaults
// (20ms base, 5s cap, factor 2, 20% jitter).
type BackoffPolicy = backoff.Policy

// Applied reports one completed apply call of the ingest loop. Its
// Trace field carries the batch's completed lifecycle record.
type Applied = serve.Applied

// SubmitTicket tracks one submitted batch through the ingest loop; its
// Trace method returns the flight trace ID assigned at Submit.
type SubmitTicket = serve.Ticket

// FlightRecorder is the engine's black box: a fixed-capacity ring,
// behind one mutex, of batch-lifecycle events (admitted/rejected,
// enqueued, coalesced, validated, journaled with fsync latency,
// applied, published, quarantined, health transitions, repair
// attempts), each stamped with a trace ID born at Submit. Build one
// with NewFlightRecorder, set it on ServerOptions.Flight (and
// DurableOptions.Flight for journal and fsync events), and mount its
// Handler at /debug/flight. The ring is dumped to the log on
// transitions to Degraded/Failed and on slow batches. A nil
// *FlightRecorder is valid and inert.
type FlightRecorder = flight.Recorder

// FlightOptions configures a FlightRecorder (ring depth, retained trace
// count, dump throttling, logger, metrics registry).
type FlightOptions = flight.Options

// NewFlightRecorder builds a flight recorder. Zero options take the
// documented defaults (4096-event ring, 256 retained traces, 1s dump
// throttle).
func NewFlightRecorder(opts FlightOptions) *FlightRecorder { return flight.New(opts) }

// BatchTrace is the completed lifecycle record of one apply call: the
// head batch's trace ID, every coalesced sibling's ID, and the
// per-phase latency breakdown (queue wait, coalesce, validate, journal,
// apply, publish). Look one up with Server.Trace.
type BatchTrace = flight.BatchTrace

// TracePhases is the per-phase latency breakdown on a BatchTrace.
type TracePhases = flight.Phases

// FlightEvent is one recorded lifecycle event in the flight ring.
type FlightEvent = flight.Event

// FlightDump is one captured ring snapshot (reason, focus trace,
// events oldest-first).
type FlightDump = flight.Dump

// ServerOptions configures a Server's ingest pipeline.
type ServerOptions struct {
	// QueueDepth bounds the number of queued (unapplied) batches.
	// Default serve.DefaultQueueDepth (64).
	QueueDepth int
	// MaxBatchEdges caps the edge count of a coalesced batch. Default
	// serve.DefaultMaxBatchEdges (4096).
	MaxBatchEdges int
	// DisableCoalescing applies every submitted batch individually.
	DisableCoalescing bool
	// Policy selects SubmitBlock (default) or SubmitReject.
	Policy SubmitPolicy
	// Metrics, when non-nil, receives ingest and read-path
	// instrumentation (queue depth, coalesced batches, read staleness).
	// Nil falls back to the process-wide registry installed by
	// EnableMetrics; both nil means instrumentation is off.
	Metrics *MetricsRegistry
	// OnApply, when non-nil, is called from the apply goroutine after
	// every apply call. Keep it fast; it runs on the write path.
	OnApply func(Applied)
	// QueryCacheBytes bounds the per-generation query cache memoizing
	// derived reads (top-k, per-vertex lookups, histograms) against
	// retained snapshots. 0 disables caching; queries still work, every
	// read computes. Cached entries need no invalidation — snapshots are
	// immutable — and are evicted by LRU within the budget and when
	// their generation falls out of the engine's history ring.
	QueryCacheBytes int64
	// QuarantineDepth bounds the ring of retained poison-batch records
	// (Quarantined); the running total keeps counting past it. 0 means
	// serve.DefaultQuarantineDepth (32).
	QuarantineDepth int
	// Backoff paces recovery retries while the server is degraded. The
	// zero value uses the defaults documented on BackoffPolicy.
	Backoff BackoffPolicy
	// ApplyDeadline, when positive, arms a watchdog on every apply
	// call: exceeding it raises graphbolt_serve_stuck_applies, logs a
	// warning and invokes OnStuck. The apply is not interrupted.
	ApplyDeadline time.Duration
	// OnStuck, when non-nil, is called (from a timer goroutine) when an
	// apply exceeds ApplyDeadline.
	OnStuck func(seq uint64, elapsed time.Duration)
	// Logger receives degraded-mode and watchdog warnings; nil uses
	// slog.Default().
	Logger *slog.Logger
	// Flight, when non-nil, records every batch's lifecycle into the
	// flight ring and completes per-phase BatchTraces retrievable via
	// Server.Trace. Pass the same recorder to DurableOptions.Flight so
	// journal and fsync events land in the same ring. Trace IDs are
	// assigned whether or not a recorder is set.
	Flight *FlightRecorder
	// SlowBatch, when positive, is the end-to-end latency (enqueue to
	// publication) above which a batch is captured as slow: a throttled
	// flight dump focused on its trace plus a warning naming the trace
	// ID. Zero or negative leaves capture off. Ignored without Flight.
	SlowBatch time.Duration
	// Shards, when > 1, partitions the apply step: the graph is split by
	// destination-vertex ownership into Shards subgraphs, each with its
	// own engine, and every batch the ingest loop dequeues is split by
	// edge owner, applied to the shard engines concurrently, joined (the
	// cross-shard generation barrier) and published as one merged
	// snapshot. Snapshot/SnapshotAt/Diff/Wait keep their exact semantics
	// over the merged view for partition-closed streams. Everything else
	// — queue, coalescing, backpressure, poison quarantine, degraded mode,
	// terminal failures — is the one ingest loop's, server-wide. 0 and 1
	// mean a single engine.
	Shards int
	// ShardAssign optionally pins specific vertices to shards,
	// overriding the hash partitioner (see partition.New). Entries must
	// be in [0, Shards). Ignored unless Shards > 1.
	ShardAssign map[VertexID]int
}

// Server is the concurrent serving facade over an engine: a
// single-writer ingest loop (Submit) feeding mutations through a
// bounded, coalescing queue, and a lock-free read path (Snapshot,
// Query, Wait) over atomically published result snapshots. Any number
// of goroutines may read while batches stream; the BSP guarantee makes
// every observed snapshot equal to a from-scratch run at its
// generation.
//
// Construct with NewServer (in-memory engine) or NewDurableServer
// (journaled engine — the journal-before-mutate ordering is preserved
// because journaling happens inside the single-writer apply loop).
type Server[V, A any] struct {
	loop   *serve.Loop
	view   readView[V]
	shards *partition.Applier[V, A] // nil unless ServerOptions.Shards > 1
	read   serve.ReadMetrics
	cache  *qcache.Cache // nil when QueryCacheBytes == 0
	gen0   uint64        // snapshot generation when the loop started
	health *health.Tracker

	closeEng func() error // durable close, nil for in-memory

	mu     sync.Mutex
	watch  chan struct{} // closed and replaced after every apply
	closed bool
}

// readView is the lock-free read surface behind a Server: one engine's
// published snapshots, or the merged view over the shard engines.
type readView[V any] interface {
	Snapshot() *core.ResultSnapshot[V]
	SnapshotAt(gen uint64) (*core.ResultSnapshot[V], error)
	RetainedGenerations() (oldest, newest uint64)
	DiffSnapshots(from, to uint64) (*core.SnapshotDiff[V], error)
}

// NewServer wraps an in-memory engine. If the engine has not run yet,
// NewServer performs the initial computation. From this point on, all
// mutations must go through Submit — calling Run or ApplyBatch on the
// engine directly breaks the single-writer invariant. With
// ServerOptions.Shards > 1, eng only supplies the graph, program and
// options: serving state lives in per-shard engines spawned over the
// split graph.
func NewServer[V, A any](eng *Engine[V, A], opts ServerOptions) *Server[V, A] {
	if opts.Shards > 1 {
		var srv *Server[V, A]
		pt, engines, err := spawnShards(eng, opts.Shards, opts.ShardAssign)
		if err == nil {
			srv, err = newShardedServer(pt, engines, nil, nil, opts)
		}
		if err != nil {
			panic(fmt.Sprintf("graphbolt: sharded server: %v", err))
		}
		return srv
	}
	if eng.Snapshot() == nil {
		eng.Run()
	}
	return newServer[V, A](eng, eng, nil, nil, opts)
}

// NewDurableServer wraps a durable engine opened with OpenDurable:
// every batch is journaled before it mutates memory, inside the
// single-writer apply loop. Close also closes the journal.
func NewDurableServer[V, A any](d *DurableEngine[V, A], opts ServerOptions) *Server[V, A] {
	if opts.Shards > 1 {
		panic("graphbolt: sharded durable serving needs per-shard journals; use OpenShardedDurable + NewShardedDurableServer")
	}
	return newServer[V, A](d.Core(), d, nil, d.Close, opts)
}

// newShardedServer serves per-shard engines (and optional per-shard
// durable targets) through the fan-out applier.
func newShardedServer[V, A any](pt *partition.Partitioner, engines []*core.Engine[V, A], targets []serve.Applier, closeEng func() error, opts ServerOptions) (*Server[V, A], error) {
	sh, err := partition.NewApplier(pt, engines, targets, opts.registry())
	if err != nil {
		return nil, err
	}
	return newServer(sh.View(), sh, sh, closeEng, opts), nil
}

func (o ServerOptions) registry() *MetricsRegistry {
	if o.Metrics != nil {
		return o.Metrics
	}
	return serve.DefaultMetrics()
}

func newServer[V, A any](view readView[V], a serve.Applier, shards *partition.Applier[V, A], closeEng func() error, opts ServerOptions) *Server[V, A] {
	s := &Server[V, A]{
		view:     view,
		shards:   shards,
		gen0:     view.Snapshot().Generation,
		closeEng: closeEng,
		watch:    make(chan struct{}),
	}
	reg := opts.registry()
	s.read = serve.NewReadMetrics(reg)
	s.cache = qcache.New(opts.QueryCacheBytes, reg)
	s.health = health.NewTracker(reg)
	userCb := opts.OnApply
	s.loop = serve.NewLoop(a, serve.Options{
		QueueDepth:        opts.QueueDepth,
		MaxBatchEdges:     opts.MaxBatchEdges,
		DisableCoalescing: opts.DisableCoalescing,
		Policy:            opts.Policy,
		Metrics:           reg,
		QuarantineDepth:   opts.QuarantineDepth,
		Backoff:           opts.Backoff,
		ApplyDeadline:     opts.ApplyDeadline,
		OnStuck:           opts.OnStuck,
		Health:            s.health,
		Logger:            opts.Logger,
		Flight:            opts.Flight,
		SlowBatch:         opts.SlowBatch,
		OnApply: func(ap Applied) {
			// Cache eviction follows ring retention: entries for
			// generations SnapshotAt can no longer serve are dead weight.
			if oldest, _ := view.RetainedGenerations(); oldest > 0 {
				s.cache.DropBelow(oldest)
			}
			s.mu.Lock()
			close(s.watch)
			s.watch = make(chan struct{})
			s.mu.Unlock()
			if userCb != nil {
				userCb(ap)
			}
		},
	})
	return s
}

// Submit enqueues a mutation batch for the single-writer apply loop.
// Under SubmitBlock it waits for queue space (bounded by ctx, which may
// be nil); under SubmitReject it fails fast with ErrQueueFull; while
// the server is degraded it fails fast with ErrDegraded. The returned
// ticket resolves once the batch's apply call completes; fire-and-forget
// callers may discard it. Malformed batches are not applied: their
// ticket fails wrapping ErrInvalidBatch and the batch is quarantined
// (Quarantined) while the loop keeps serving.
func (s *Server[V, A]) Submit(ctx context.Context, b Batch) (*SubmitTicket, error) {
	return s.loop.Submit(ctx, b)
}

// SubmitWait submits a batch and blocks until a snapshot covering it is
// published, returning that snapshot. Due to coalescing the snapshot
// may also cover neighboring batches.
func (s *Server[V, A]) SubmitWait(ctx context.Context, b Batch) (*ResultSnapshot[V], error) {
	tk, err := s.Submit(ctx, b)
	if err != nil {
		return nil, err
	}
	ap, err := tk.Wait(ctx)
	if err != nil {
		return nil, err
	}
	return s.Wait(ctx, s.gen0+ap.Seq)
}

// Snapshot returns the most recently published result snapshot. It is
// lock-free and safe from any goroutine, concurrently with streaming
// mutations; the snapshot is immutable and may be held indefinitely.
func (s *Server[V, A]) Snapshot() *ResultSnapshot[V] {
	snap := s.view.Snapshot()
	s.read.Observe(snap.PublishedAt)
	return snap
}

// Query runs fn against the current result snapshot. The snapshot is
// internally consistent — graph, values and level belong to the same
// generation — and immutable, so fn needs no synchronization with the
// writer. fn must not mutate the snapshot's values; use
// ResultSnapshot.CopyValues for an owned slice.
func (s *Server[V, A]) Query(fn func(*ResultSnapshot[V])) {
	fn(s.Snapshot())
}

// Generation returns the generation of the current snapshot.
func (s *Server[V, A]) Generation() uint64 {
	return s.view.Snapshot().Generation
}

// SnapshotAt returns the retained snapshot for exactly generation gen —
// a point-in-time read. Like Snapshot it is lock-free and the result is
// immutable; unlike Snapshot it fails (wrapping ErrGenerationNotRetained)
// when gen has been evicted from the history ring, was never published,
// or retention is off (EngineOptions.Retain <= 1 keeps only the newest
// generation addressable). Retained(), via RetainedGenerations, reports
// the currently addressable window.
func (s *Server[V, A]) SnapshotAt(gen uint64) (*ResultSnapshot[V], error) {
	return s.view.SnapshotAt(gen)
}

// RetainedGenerations returns the inclusive [oldest, newest] generation
// window currently addressable via SnapshotAt, or (0, 0) before the
// first publication.
func (s *Server[V, A]) RetainedGenerations() (oldest, newest uint64) {
	return s.view.RetainedGenerations()
}

// Diff compares two retained generations and reports the vertices whose
// values changed between them, with before/after values and the vertex
// and edge count deltas. Both generations must still be retained.
func (s *Server[V, A]) Diff(from, to uint64) (*SnapshotDiff[V], error) {
	return s.view.DiffSnapshots(from, to)
}

// Cache returns the server's per-generation query cache for use with
// the qcache helpers (TopK, Value, histograms). It is nil when
// ServerOptions.QueryCacheBytes is 0 — a valid argument to every
// helper; queries then compute uncached.
func (s *Server[V, A]) Cache() *QueryCache { return s.cache }

// QuerySource is the read surface the HTTP query API serves — both
// *Server[V, A] and *Follower[V, A] (see replication.go) satisfy it,
// which is what lets a load balancer spread reads across a leader and
// its followers without telling them apart.
type QuerySource[V any] = replica.Source[V]

// QueryHandler returns the HTTP/JSON query API over a server:
// /v1/snapshot, /v1/snapshot/{gen}, /v1/topk?k=N, /v1/value/{vertex}
// and /v1/diff?from=&to=, with qcache-memoized reads and JSON errors
// (400 malformed, 404 unknown vertex, 405 non-GET, 410 evicted
// generation, 503 before first publish). Mount it alongside the
// observability mux:
//
//	mux := obs.HandlerWith(reg, map[string]http.Handler{
//	    "/healthz": srv.HealthHandler(),
//	    "/v1/":     graphbolt.QueryHandler(srv),
//	})
//
// A free function rather than a method because /v1/topk needs V to be
// ordered, a constraint methods cannot add.
func QueryHandler[V cmp.Ordered, A any](srv *Server[V, A]) http.Handler {
	return replica.API[V](srv)
}

// FollowerQueryHandler is QueryHandler for a follower — the identical
// API surface served from replicated state.
func FollowerQueryHandler[V cmp.Ordered, A any](f *Follower[V, A]) http.Handler {
	return replica.API[V](f)
}

// Wait blocks until a snapshot with Generation >= gen is published,
// then returns it — the FIRST such snapshot the reader observes, not
// necessarily generation gen exactly: if the writer has already moved
// past gen (or coalescing folded several submissions into one apply),
// the returned snapshot's Generation may exceed gen. Callers that need
// a specific historical generation should use SnapshotAt with retention
// enabled. A nil ctx means no deadline. It fails with the loop's
// terminal error if ingest failed, or ErrServerClosed if the server
// closed before reaching gen.
func (s *Server[V, A]) Wait(ctx context.Context, gen uint64) (*ResultSnapshot[V], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		if snap := s.view.Snapshot(); snap != nil && snap.Generation >= gen {
			return snap, nil
		}
		if err := s.Err(); err != nil {
			return nil, err
		}
		s.mu.Lock()
		w := s.watch
		closed := s.closed
		s.mu.Unlock()
		if closed {
			// No further applies will happen; re-check once to close the
			// race with the final apply, then fail.
			if snap := s.view.Snapshot(); snap != nil && snap.Generation >= gen {
				return snap, nil
			}
			return nil, fmt.Errorf("%w: generation %d never published", ErrServerClosed, gen)
		}
		select {
		case <-w:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Sync blocks until every batch submitted before the call has been
// applied and published, then returns the current snapshot. A nil ctx
// means no deadline.
func (s *Server[V, A]) Sync(ctx context.Context) (*ResultSnapshot[V], error) {
	if err := s.loop.Sync(ctx); err != nil {
		return nil, err
	}
	return s.view.Snapshot(), nil
}

// QueueDepth returns the number of batches currently queued for the
// apply loop.
func (s *Server[V, A]) QueueDepth() int { return s.loop.Depth() }

// Flight returns the server's flight recorder, nil unless
// ServerOptions.Flight was set. The nil recorder is inert and safe to
// call.
func (s *Server[V, A]) Flight() *FlightRecorder { return s.loop.Flight() }

// Trace returns the completed lifecycle record covering trace ID id —
// assigned at Submit, returned by SubmitTicket.Trace and on
// Applied.Trace — whether id was the head of its apply or coalesced
// into a sibling's. It reports false when no flight recorder is
// configured or the trace has aged out of the recorder's bounded
// history (FlightOptions.TraceDepth).
func (s *Server[V, A]) Trace(id uint64) (BatchTrace, bool) {
	return s.Flight().Trace(id)
}

// FlightHandler returns an http.Handler serving the flight ring as JSON
// (filterable with ?trace=ID, ?kind=NAME, ?dump=last), for mounting at
// /debug/flight:
//
//	mux := obs.HandlerWith(reg, map[string]http.Handler{
//	    "/debug/flight": srv.FlightHandler(),
//	})
//
// Without a configured recorder the handler answers 404.
func (s *Server[V, A]) FlightHandler() http.Handler { return s.Flight().Handler() }

// Err returns the ingest loop's terminal failure, or nil. After a
// terminal failure the wrapped engine must be discarded; a durable
// engine can be reopened from its checkpoint and journal. Degraded
// mode is not terminal and does not show up here — see Health. The
// value never changes once non-nil, names the failing shard on a
// sharded server, and keeps precedence over ErrServerClosed after
// Close.
func (s *Server[V, A]) Err() error { return s.loop.Err() }

// Health returns the server's health tracker. Its State method reports
// HealthHealthy, HealthDegraded (reads serving, writes failing fast
// while recovery retries) or HealthFailed (terminal); OnTransition
// registers hooks for state changes.
func (s *Server[V, A]) Health() *HealthTracker { return s.health }

// HealthHandler returns an http.Handler serving the server's health as
// JSON ({"state","cause","since"}); it answers 200 while Healthy or
// Degraded and 503 once Failed, so it suits both liveness and, via the
// body, readiness checks. Mount it alongside the metrics mux:
//
//	mux := obs.HandlerWith(reg, map[string]http.Handler{
//	    "/healthz": srv.HealthHandler(),
//	})
func (s *Server[V, A]) HealthHandler() http.Handler { return health.Handler(s.health) }

// Quarantined returns the retained poison-batch records, oldest first
// (a bounded ring: the most recent ServerOptions.QuarantineDepth).
// Each record carries the offending batch, its submission sequence,
// the validation error and the rejection time.
func (s *Server[V, A]) Quarantined() []PoisonBatch { return s.loop.Quarantined() }

// QuarantinedTotal returns the running count of quarantined batches,
// including records the ring has since evicted.
func (s *Server[V, A]) QuarantinedTotal() uint64 { return s.loop.QuarantinedTotal() }

// Shards returns the number of partition shards each batch fans out
// over: 1 for a single engine.
func (s *Server[V, A]) Shards() int {
	if s.shards == nil {
		return 1
	}
	return s.shards.Shards()
}

// ShardInfo is a point-in-time report of what one partition shard
// still owns: its engine's progress and its journal's health.
type ShardInfo struct {
	Shard   int    // shard index
	Applied uint64 // sub-batches the shard's engine has applied
	Ailment error  // storage fault blocking the shard's journal, nil when healthy
}

// ShardInfos reports every shard's applied count and ailment; a
// single-element slice (the loop's apply count, the degraded cause) for
// a single engine.
func (s *Server[V, A]) ShardInfos() []ShardInfo {
	if s.shards == nil {
		one := ShardInfo{Applied: s.loop.Seq()}
		if info := s.health.Info(); info.State == HealthDegraded {
			one.Ailment = info.Cause
		}
		return []ShardInfo{one}
	}
	out := make([]ShardInfo, s.shards.Shards())
	for i := range out {
		out[i].Shard = i
		out[i].Applied, out[i].Ailment = s.shards.ShardStatus(i)
	}
	return out
}

// Close stops accepting submissions, drains the queue, waits for the
// apply goroutine to exit (bounded by ctx; nil waits indefinitely),
// and — for durable servers — closes the journal. Reads remain valid
// after Close: the last published snapshot stays available.
func (s *Server[V, A]) Close(ctx context.Context) error {
	err := s.loop.Close(ctx)
	select {
	case <-s.loop.Done():
	default:
		// ctx expired while the queue was still draining: the loop is
		// still writing, so leave the journal open and the server
		// accepting Wait calls; a later Close can finish the job.
		return err
	}
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.watch)
		s.watch = make(chan struct{})
	}
	s.mu.Unlock()
	if s.closeEng != nil {
		if cerr := s.closeEng(); err == nil {
			err = cerr
		}
		s.closeEng = nil
	}
	return err
}
