package graphbolt

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"

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
// cumulative stats. Engine.Snapshot and Server.Snapshot hand these
// out; readers may hold one indefinitely while mutations stream.
type ResultSnapshot[V any] = core.ResultSnapshot[V]

// Ingest failure sentinels, for errors.Is.
var (
	// ErrServerClosed reports a Submit or Wait after Close.
	ErrServerClosed = serve.ErrClosed
	// ErrDegraded reports a Submit refused (or a held batch failed)
	// because the server is in degraded read-only mode: the journal
	// faulted and recovery is being retried in the background. Reads
	// keep working; resubmit after the server returns to HealthHealthy.
	ErrDegraded = serve.ErrDegraded
)

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
// transitions to Degraded/Failed. A nil *FlightRecorder is valid and
// inert.
type FlightRecorder = flight.Recorder

// FlightOptions configures a FlightRecorder (ring depth, logger,
// metrics registry).
type FlightOptions = flight.Options

// NewFlightRecorder builds a flight recorder. A zero Depth takes the
// 4096-event default.
func NewFlightRecorder(opts FlightOptions) *FlightRecorder { return flight.New(opts) }

// ServerOptions configures a Server's ingest pipeline.
type ServerOptions struct {
	// QueueDepth bounds the number of queued (unapplied) batches; Submit
	// waits for a free slot. Default serve.DefaultQueueDepth (64).
	// Coalescing merges queued batches into one apply of at most
	// serve.DefaultMaxBatchEdges (4096) edges.
	QueueDepth int
	// DisableCoalescing applies every submitted batch individually.
	DisableCoalescing bool
	// Metrics, when non-nil, receives ingest and read-path
	// instrumentation (queue depth, coalesced batches, read staleness).
	// Nil means instrumentation is off.
	Metrics *MetricsRegistry
	// OnApply, when non-nil, is called from the apply goroutine after
	// every apply call. Keep it fast; it runs on the write path.
	OnApply func(Applied)
	// QueryCacheBytes bounds the per-generation query cache memoizing
	// top-k reads against retained snapshots. 0 disables caching;
	// queries still work, every read computes. Cached entries need no invalidation — snapshots are
	// immutable — and are evicted by LRU within the budget and when
	// their generation falls out of the engine's history ring.
	QueryCacheBytes int64
	// Backoff paces recovery retries while the server is degraded. The
	// zero value uses the defaults documented on BackoffPolicy.
	Backoff BackoffPolicy
	// Logger receives degraded-mode and quarantine warnings; nil uses
	// slog.Default().
	Logger *slog.Logger
	// Flight, when non-nil, records every batch's lifecycle events into
	// the flight ring and dumps it on transitions to Degraded/Failed.
	// Pass the same recorder to DurableOptions.Flight so journal and
	// fsync events land in the same ring. Trace IDs and the per-phase
	// BatchTrace on Applied.Trace are produced whether or not a recorder
	// is set, but Phases.Journal is non-zero only when this recorder is
	// also DurableOptions.Flight: otherwise the journal time is counted
	// in Phases.Apply. Apply also covers the engine's own publish (the
	// O(V) value copy), so Publish is only the span from the apply's
	// return to ticket resolution.
	Flight *FlightRecorder
	// Shards, when > 1, partitions the apply step: the graph is split by
	// destination-vertex ownership into Shards subgraphs, each with its
	// own engine, and every batch the ingest loop dequeues is split by
	// edge owner, applied to the shard engines concurrently, joined (the
	// cross-shard generation barrier) and published as one merged
	// snapshot. Snapshot/SnapshotAt/Wait keep their exact semantics
	// over the merged view for partition-closed streams. Everything else
	// — queue, coalescing, backpressure, poison quarantine, terminal
	// failures — is the one ingest loop's, server-wide. Sharding is
	// in-memory only: NewDurableServer refuses Shards > 1. 0 and 1 mean a
	// single engine.
	Shards int
	// ShardAssign optionally pins specific vertices to shards,
	// overriding the hash partitioner (see partition.New). Entries must
	// be in [0, Shards). Ignored unless Shards > 1.
	ShardAssign map[VertexID]int
}

// Server is the concurrent serving facade over an engine: a
// single-writer ingest loop (Submit) feeding mutations through a
// bounded, coalescing queue, and a lock-free read path (Snapshot,
// SnapshotAt, Wait) over atomically published result snapshots. Any number
// of goroutines may read while batches stream; the BSP guarantee makes
// every observed snapshot equal to a from-scratch run at its
// generation.
//
// Construct with NewServer (in-memory engine) or NewDurableServer
// (journaled engine — the journal-before-publish ordering is preserved
// because journaling, the fsync wait and the publish happen inside the
// single-writer apply loop).
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
		srv, err := newShardedServer(eng, opts)
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
// every batch is journaled before its result is published, inside the
// single-writer apply loop. Close also closes the journal.
func NewDurableServer[V, A any](d *DurableEngine[V, A], opts ServerOptions) *Server[V, A] {
	if opts.Shards > 1 {
		panic("graphbolt: sharded serving is in-memory only; use NewServer with ServerOptions.Shards")
	}
	return newServer[V, A](d.Core(), d, nil, d.Close, opts)
}

// newShardedServer splits eng's graph by destination-vertex ownership,
// spawns one fresh engine (same program and options) per shard, and
// serves them through the fan-out applier.
func newShardedServer[V, A any](eng *Engine[V, A], opts ServerOptions) (*Server[V, A], error) {
	pt, err := partition.New(opts.Shards, opts.ShardAssign)
	if err != nil {
		return nil, err
	}
	g := eng.Graph()
	parts, err := pt.SplitGraph(g)
	if err != nil {
		return nil, err
	}
	engines := make([]*Engine[V, A], len(parts))
	for s, sg := range parts {
		if engines[s], err = eng.SpawnForGraph(sg); err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
	}
	sh, err := partition.NewApplier(pt, engines, g, opts.Metrics)
	if err != nil {
		return nil, err
	}
	return newServer(sh.View(), sh, sh, nil, opts), nil
}

func newServer[V, A any](view readView[V], a serve.Applier, shards *partition.Applier[V, A], closeEng func() error, opts ServerOptions) *Server[V, A] {
	s := &Server[V, A]{
		view:     view,
		shards:   shards,
		gen0:     view.Snapshot().Generation,
		closeEng: closeEng,
		watch:    make(chan struct{}),
	}
	reg := opts.Metrics
	s.read = serve.NewReadMetrics(reg)
	s.cache = qcache.New(opts.QueryCacheBytes, reg)
	s.health = health.NewTracker(reg)
	userCb := opts.OnApply
	s.loop = serve.NewLoop(a, serve.Options{
		QueueDepth:        opts.QueueDepth,
		DisableCoalescing: opts.DisableCoalescing,
		Metrics:           reg,
		Backoff:           opts.Backoff,
		Health:            s.health,
		Logger:            opts.Logger,
		Flight:            opts.Flight,
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
// When the queue is full it waits for space (bounded by ctx, which may
// be nil); while the server is degraded it fails fast with
// ErrDegraded. The returned
// ticket resolves once the batch's apply call completes; fire-and-forget
// callers may discard it. Malformed batches are not applied: their
// ticket fails wrapping ErrInvalidBatch, the rejection is logged,
// counted and recorded as a flight event, and the loop keeps serving.
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

// Cache returns the server's per-generation query cache for use with
// TopK. It is nil when ServerOptions.QueryCacheBytes is 0 — a valid
// argument to TopK, which then computes uncached.
func (s *Server[V, A]) Cache() *QueryCache { return s.cache }

// QueryHandler returns the HTTP/JSON query API over a server:
// /v1/snapshot, /v1/snapshot/{gen}, /v1/topk?k=N and /v1/value/{vertex},
// with qcache-memoized top-k reads and JSON errors
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

// Flight returns the server's flight recorder, nil unless
// ServerOptions.Flight was set. The nil recorder is inert and safe to
// call.
func (s *Server[V, A]) Flight() *FlightRecorder { return s.loop.Flight() }

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

// Shards returns the number of partition shards each batch fans out
// over: 1 for a single engine.
func (s *Server[V, A]) Shards() int {
	if s.shards == nil {
		return 1
	}
	return s.shards.Shards()
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
