package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/flight"
	"repro/internal/graph"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/serve"
	"repro/internal/wal"
)

// DefaultStallTimeout is the default stream-stall watchdog limit: the
// maximum silence (no record, no heartbeat) before the follower drops
// the connection and reconnects. Thirty heartbeat intervals — wide
// enough that a loaded leader never trips it, tight enough that a
// half-dead connection (SYN-acked socket, wedged proxy, partitioned
// peer) is abandoned in seconds rather than at the kernel's multi-
// minute TCP timeout.
const DefaultStallTimeout = 30 * DefaultHeartbeat

// RecordApplier is the follower's replay sink: ApplyRecord replays one
// leader journal record, Seq reports the last applied sequence number
// (the resume position), and InstallCheckpoint re-seeds the applier
// after the leader compacted past that position: it replaces the
// applier's state with a complete framed checkpoint streamed from the
// leader (wal checkpoint header + core snapshot, both CRC-verified
// before anything is mutated) and returns the sequence number it
// covers. durable.Engine implements it directly — a durable follower
// re-journals every record locally, so a restart resumes from disk at
// the exact sequence it stopped at, and an installed checkpoint lands
// on disk before the local journal is truncated. An in-memory follower
// uses the applier returned by NewEngineApplier, restarts from zero and
// installs a checkpoint by swapping state behind the published
// snapshot.
//
// The Follower calls every method from a single goroutine, and
// ApplyRecord with strictly consecutive sequence numbers.
type RecordApplier interface {
	ApplyRecord(rec wal.Record) error
	Seq() uint64
	InstallCheckpoint(r io.Reader) (uint64, error)
}

// engineApplier adapts a bare core.Engine as a RecordApplier for
// in-memory (non-durable) followers.
type engineApplier[V, A any] struct {
	eng *core.Engine[V, A]
	seq uint64
}

// NewEngineApplier wraps a core engine as a RecordApplier starting at
// sequence 0 (a fresh follower that needs the full stream).
func NewEngineApplier[V, A any](eng *core.Engine[V, A]) RecordApplier {
	return &engineApplier[V, A]{eng: eng}
}

func (a *engineApplier[V, A]) ApplyRecord(rec wal.Record) error {
	if rec.Seq != a.seq+1 {
		return fmt.Errorf("%w: record seq %d, next expected %d", durable.ErrOutOfOrder, rec.Seq, a.seq+1)
	}
	if _, err := a.eng.ApplyBatch(rec.Batch); err != nil {
		return err
	}
	a.seq = rec.Seq
	return nil
}

func (a *engineApplier[V, A]) Seq() uint64 { return a.seq }

// InstallCheckpoint re-seeds the in-memory applier from a shipped
// checkpoint. core.ReadSnapshot validates the whole frame before
// mutating the engine, so a torn or corrupt body leaves the applier
// exactly as it was; the published-snapshot swap at the end is what
// makes the new state visible to readers atomically.
func (a *engineApplier[V, A]) InstallCheckpoint(r io.Reader) (uint64, error) {
	seq, err := wal.ReadCheckpointHeader(r)
	if err != nil {
		return 0, err
	}
	if seq <= a.seq {
		return 0, fmt.Errorf("%w: checkpoint seq %d, applier at %d", durable.ErrCheckpointStale, seq, a.seq)
	}
	if err := a.eng.ReadSnapshot(r); err != nil {
		return 0, err
	}
	a.seq = seq
	return seq, nil
}

// FollowerOptions configures a Follower.
type FollowerOptions struct {
	// Client performs the stream requests; nil uses http.DefaultClient.
	// The client's Timeout must be zero — the stream is long-lived.
	Client *http.Client
	// Backoff paces reconnect attempts. The zero value applies the
	// backoff package defaults (20ms base, 5s cap).
	Backoff backoff.Policy
	// Metrics, when non-nil, receives the graphbolt_replica_* series.
	Metrics *obs.Registry
	// QueryCacheBytes bounds the follower's per-generation query cache,
	// exactly like ServerOptions.QueryCacheBytes. 0 disables caching.
	QueryCacheBytes int64
	// Logger receives reconnect and stream-fault warnings; nil uses
	// slog.Default().
	Logger *slog.Logger
	// OnApply, when non-nil, is called from the replay goroutine after
	// every applied record. Keep it fast.
	OnApply func(rec wal.Record)
	// StallTimeout is the stream-stall watchdog limit: a connection that
	// carries neither records nor heartbeats for this long is dropped
	// and re-dialed (counted in graphbolt_replica_stalls_total).
	// Heartbeats count as progress, so an idle-but-alive leader never
	// trips it. 0 applies DefaultStallTimeout; negative disables the
	// watchdog.
	StallTimeout time.Duration
	// Health, when non-nil, tracks the follower's serving state: Healthy
	// while streaming, Degraded across transient faults (reconnects,
	// stalls, re-seeds in progress), Failed on a terminal error. Nil is
	// fine — all Tracker methods are nil-safe.
	Health *health.Tracker
	// Flight, when non-nil, receives reseed/stall lifecycle events so a
	// post-hoc dump shows when and why the follower jumped sequence
	// numbers or dropped a connection.
	Flight *flight.Recorder
}

// Follower tails a leader's replication stream and replays it into a
// local engine, exposing the same read surface a Server does: the BSP
// guarantee means its SnapshotAt(g) is the leader's SnapshotAt(g) for
// every generation it has acked (g = applied seq + 1; see DESIGN.md).
//
// The replay goroutine (Run) is the only writer; every read method is
// safe from any goroutine, riding the engine's lock-free snapshot path.
type Follower[V, A any] struct {
	eng    *core.Engine[V, A]
	ap     RecordApplier
	base   *url.URL
	opts   FollowerOptions
	cache  *qcache.Cache
	met    metrics
	logger *slog.Logger

	applied   atomic.Uint64 // last applied sequence number
	leaderSeq atomic.Uint64 // newest sequence the leader has announced
	records   atomic.Uint64 // records applied from the stream
	resumes   atomic.Uint64 // reconnects after the first connection
	reseeds   atomic.Uint64 // checkpoint installs after log compaction
	stalls    atomic.Uint64 // connections dropped by the stall watchdog

	mu        sync.Mutex
	lastErr   error     // latest transient stream fault (cleared on connect)
	caughtUp  time.Time // last instant lag was 0
	connected bool      // a connection has succeeded at least once

	runDone chan struct{} // closed when Run returns (set by Start)
	cancel  context.CancelFunc
}

// NewFollower builds a follower over a fresh or recovered engine. ap is
// the replay sink; pass the durable engine itself for a durable
// follower, or NewEngineApplier(eng) (or nil, which does that) for an
// in-memory one. leaderURL is the base URL of the leader's HTTP
// surface; the stream is fetched from leaderURL + "/v1/wal".
func NewFollower[V, A any](eng *core.Engine[V, A], ap RecordApplier, leaderURL string, opts FollowerOptions) (*Follower[V, A], error) {
	if eng == nil {
		return nil, fmt.Errorf("replica: nil engine")
	}
	u, err := url.Parse(leaderURL)
	if err != nil {
		return nil, fmt.Errorf("replica: leader url: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("replica: leader url %q: scheme must be http or https", leaderURL)
	}
	if ap == nil {
		ap = NewEngineApplier(eng)
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	f := &Follower[V, A]{
		eng:    eng,
		ap:     ap,
		base:   u,
		opts:   opts,
		cache:  qcache.New(opts.QueryCacheBytes, opts.Metrics),
		met:    newMetrics(opts.Metrics),
		logger: logger,
	}
	f.mu.Lock()
	f.caughtUp = time.Now()
	f.mu.Unlock()
	return f, nil
}

// NewDurableFollower builds a follower whose applier is a durable
// engine: every streamed record is re-journaled locally before it
// mutates state, so a killed follower reopens its directory and resumes
// from the exact sequence number it last acked — the seq-exact restart
// the chaos tests assert.
func NewDurableFollower[V, A any](d *durable.Engine[V, A], leaderURL string, opts FollowerOptions) (*Follower[V, A], error) {
	if d == nil {
		return nil, fmt.Errorf("replica: nil durable engine")
	}
	return NewFollower(d.Core(), d, leaderURL, opts)
}

// Run tails the leader until ctx is cancelled, reconnecting with
// backoff across stream faults, stalls and leader outages, repairing a
// durable applier's journal fault before the next dial, and re-seeding
// itself from the leader's checkpoint when the log has been compacted
// past its position. It returns ctx.Err() on cancellation,
// or a terminal error: the local applier rejected a record, or the
// leader compacted the log and serves no checkpoint to bridge the gap.
// It runs the engine's initial
// computation first if the engine has never published (generation
// parity with the leader requires both sides to start from the same
// base graph).
//
// The backoff attempt counter resets whenever a connection makes real
// progress — at least one record applied, or a successful re-seed — so
// a follower that streamed healthily for an hour and then lost the
// connection retries at the base delay, not wherever a morning's worth
// of transient faults left the counter.
func (f *Follower[V, A]) Run(ctx context.Context) error {
	if f.eng.Snapshot() == nil {
		f.eng.Run()
	}
	f.applied.Store(f.ap.Seq())
	f.updateLag()
	attempt := 0
	for {
		applied, err := f.stream(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if applied > 0 {
			attempt = 0
		}
		switch {
		case err == nil:
			// Leader closed the stream cleanly (shutdown); keep retrying
			// at the backoff cadence — it may come back.
			attempt++
		case errors.Is(err, ErrLogCompacted):
			f.setErr(err)
			f.opts.Health.Set(health.Degraded, err)
			rerr, terminal := f.reseed(ctx)
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if rerr == nil {
				attempt = 0
				continue // reconnect immediately from the new position
			}
			f.setErr(rerr)
			if terminal {
				f.opts.Health.Set(health.Failed, rerr)
				return rerr
			}
			f.logger.Warn("replica: checkpoint re-seed failed; will retry",
				"applied", f.applied.Load(), "err", rerr)
			attempt++
		case isTerminal(err):
			f.setErr(err)
			f.opts.Health.Set(health.Failed, err)
			return err
		default:
			f.setErr(err)
			f.opts.Health.Set(health.Degraded, err)
			f.logger.Warn("replica: stream interrupted; will resume",
				"applied", f.applied.Load(), "err", err)
			// A durable applier latches a journal fault and refuses every
			// record until it is repaired. No serve.Loop supervises a
			// follower's applier, so Run does, on the goroutine that
			// applies — still single-writer.
			if rec, ok := f.ap.(serve.Recoverer); ok && rec.Ailment() != nil {
				if rerr := rec.Recover(); rerr != nil {
					f.logger.Warn("replica: journal repair failed; will retry", "err", rerr)
				}
			}
			attempt++
		}
		delay := f.opts.Backoff.Delay(attempt - 1)
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// Start launches Run in a goroutine. Use Close to stop it.
func (f *Follower[V, A]) Start(ctx context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	f.mu.Lock()
	f.cancel, f.runDone = cancel, done
	f.mu.Unlock()
	go func() {
		defer close(done)
		if err := f.Run(ctx); err != nil && ctx.Err() == nil {
			f.logger.Error("replica: follower stopped", "err", err)
		}
	}()
}

// Close stops a Start-ed follower and waits for the replay goroutine to
// exit (bounded by ctx). It does not close the engine.
func (f *Follower[V, A]) Close(ctx context.Context) error {
	f.mu.Lock()
	cancel, done := f.cancel, f.runDone
	f.mu.Unlock()
	if cancel == nil {
		return nil
	}
	cancel()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// isTerminal reports faults no amount of reconnecting can fix. Log
// compaction is deliberately not here anymore: Run intercepts it first
// and attempts a checkpoint re-seed; it only becomes terminal when no
// checkpoint can bridge the gap.
func isTerminal(err error) bool {
	return errors.Is(err, durable.ErrOutOfOrder) || errors.Is(err, graph.ErrInvalidBatch)
}

func (f *Follower[V, A]) client() *http.Client {
	if f.opts.Client != nil {
		return f.opts.Client
	}
	return http.DefaultClient
}

func (f *Follower[V, A]) stallTimeout() time.Duration {
	switch {
	case f.opts.StallTimeout < 0:
		return 0 // disabled
	case f.opts.StallTimeout == 0:
		return DefaultStallTimeout
	}
	return f.opts.StallTimeout
}

// stream runs one connection lifecycle: connect, resume from the last
// applied sequence, apply messages until the connection breaks. It
// returns the number of records applied on this connection — Run's
// progress signal for resetting backoff.
//
// A watchdog goroutine guards the whole lifecycle: if no message
// (record or heartbeat) arrives within the stall timeout it cancels
// the connection's context, tearing down both a wedged read and a hung
// connect. The error is then reported as ErrStreamStalled rather than
// the context error the cancellation produced.
func (f *Follower[V, A]) stream(ctx context.Context) (applied int, err error) {
	timeout := f.stallTimeout()
	var lastMsg atomic.Int64 // Unix nanos of the newest message
	var stalled atomic.Bool
	if timeout > 0 {
		sctx, cancel := context.WithCancel(ctx)
		defer cancel()
		ctx = sctx
		lastMsg.Store(time.Now().UnixNano())
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			tick := time.NewTicker(max(timeout/4, time.Millisecond))
			defer tick.Stop()
			for {
				select {
				case <-sctx.Done():
					return
				case <-watchDone:
					return
				case <-tick.C:
					if time.Since(time.Unix(0, lastMsg.Load())) > timeout {
						stalled.Store(true)
						cancel()
						return
					}
				}
			}
		}()
		defer func() {
			if err != nil && stalled.Load() {
				silence := time.Since(time.Unix(0, lastMsg.Load()))
				err = fmt.Errorf("%w: no message for %v (limit %v)",
					ErrStreamStalled, silence.Round(time.Millisecond), timeout)
				f.stalls.Add(1)
				f.met.stalls.Inc()
				f.opts.Flight.Record(flight.KindStall, 0, int64(silence), 0)
			}
		}()
	}

	u := *f.base
	u.Path, _ = url.JoinPath(u.Path, "/v1/wal")
	q := u.Query()
	q.Set("from", strconv.FormatUint(f.applied.Load(), 10))
	u.RawQuery = q.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return 0, fmt.Errorf("replica: %w", err)
	}
	resp, err := f.client().Do(req)
	if err != nil {
		return 0, fmt.Errorf("replica: connect: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return 0, fmt.Errorf("%w (leader floor is past seq %d)", ErrLogCompacted, f.applied.Load())
	default:
		return 0, fmt.Errorf("replica: leader returned %s", resp.Status)
	}
	wr := newWireReader(resp.Body)
	leaderSeq, err := wr.hello()
	if err != nil {
		return 0, err
	}
	lastMsg.Store(time.Now().UnixNano())
	f.noteLeader(leaderSeq)
	f.markConnected()
	for {
		msg, err := wr.next()
		if err != nil {
			return applied, err
		}
		lastMsg.Store(time.Now().UnixNano())
		switch msg.kind {
		case kindHeartbeat:
			f.noteLeader(msg.leaderSeq)
		case kindRecord:
			if err := f.apply(msg.rec); err != nil {
				return applied, err
			}
			applied++
		}
	}
}

// reseed bridges a compaction gap: fetch the leader's checkpoint,
// install it through the applier's InstallCheckpoint, and move
// the resume position to its sequence. The never-skip/never-double
// invariant holds across the jump because the checkpoint's state IS
// the leader's state after applying every record ≤ its sequence — the
// skipped records are not lost, they are inside the install. The
// second return value reports whether the failure is terminal (no way
// to re-seed, ever) versus transient (retry after backoff: connection
// trouble, a checkpoint that has not yet advanced past our position,
// a torn transfer).
func (f *Follower[V, A]) reseed(ctx context.Context) (error, bool) {
	u := *f.base
	u.Path, _ = url.JoinPath(u.Path, "/v1/checkpoint")
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return fmt.Errorf("replica: %w", err), true
	}
	start := time.Now()
	resp, err := f.client().Do(req)
	if err != nil {
		return fmt.Errorf("replica: checkpoint fetch: %w", err), false
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		// The leader has never checkpointed yet its log floor is past us;
		// nothing can bridge the gap, now or later (any future checkpoint
		// would cover even more).
		return fmt.Errorf("%w: %w at %s", ErrLogCompacted, durable.ErrNoCheckpoint, u.Redacted()), true
	default:
		return fmt.Errorf("replica: checkpoint fetch: leader returned %s", resp.Status), false
	}
	prev := f.applied.Load()
	seq, err := f.ap.InstallCheckpoint(resp.Body)
	if err != nil {
		return fmt.Errorf("replica: install checkpoint: %w", err), false
	}
	f.met.checkpointFetch.Observe(time.Since(start).Seconds())
	f.applied.Store(seq)
	f.reseeds.Add(1)
	f.met.reseeds.Inc()
	f.opts.Flight.Record(flight.KindReseed, 0, int64(prev), int64(seq))
	f.noteLeader(seq)
	f.logger.Info("replica: re-seeded from leader checkpoint",
		"from_seq", prev, "to_seq", seq, "took", time.Since(start).Round(time.Millisecond))
	return nil, false
}

// apply replays one record, enforcing the never-skip, never-double
// invariant: records at or below the applied position are duplicates
// from a resume overlap and are dropped; a gap is a protocol fault that
// drops the connection (the leader will replay from our position).
func (f *Follower[V, A]) apply(rec wal.Record) error {
	cur := f.applied.Load()
	if rec.Seq <= cur {
		return nil // duplicate from resume overlap
	}
	if rec.Seq != cur+1 {
		return fmt.Errorf("%w: record seq %d after %d", ErrStreamCorrupt, rec.Seq, cur)
	}
	if err := f.ap.ApplyRecord(rec); err != nil {
		return fmt.Errorf("replica: apply seq %d: %w", rec.Seq, err)
	}
	f.applied.Store(rec.Seq)
	f.records.Add(1)
	f.met.records.Inc()
	f.noteLeader(rec.Seq)
	if f.opts.OnApply != nil {
		f.opts.OnApply(rec)
	}
	return nil
}

// noteLeader folds a leader progress signal into the lag gauges.
func (f *Follower[V, A]) noteLeader(seq uint64) {
	for {
		cur := f.leaderSeq.Load()
		if seq <= cur {
			break
		}
		if f.leaderSeq.CompareAndSwap(cur, seq) {
			break
		}
	}
	f.updateLag()
}

func (f *Follower[V, A]) updateLag() {
	lag := f.Lag()
	f.met.lagGenerations.Set(float64(lag))
	f.mu.Lock()
	if lag == 0 {
		f.caughtUp = time.Now()
	}
	since := time.Since(f.caughtUp)
	f.mu.Unlock()
	if lag == 0 {
		f.met.lagSeconds.Set(0)
	} else {
		f.met.lagSeconds.Set(since.Seconds())
	}
}

func (f *Follower[V, A]) markConnected() {
	f.mu.Lock()
	first := !f.connected
	f.connected = true
	f.lastErr = nil
	f.mu.Unlock()
	if !first {
		f.resumes.Add(1)
		f.met.resumes.Inc()
	}
	f.opts.Health.Set(health.Healthy, nil)
}

func (f *Follower[V, A]) setErr(err error) {
	f.mu.Lock()
	f.lastErr = err
	f.mu.Unlock()
}

// Err returns the most recent stream fault, nil while the stream is
// healthy. Terminal faults stay set after Run returns.
func (f *Follower[V, A]) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastErr
}

// AppliedSeq returns the last applied sequence number — the resume
// position.
func (f *Follower[V, A]) AppliedSeq() uint64 { return f.applied.Load() }

// LeaderSeq returns the newest sequence number the leader has
// announced (via hello, heartbeats, or shipped records).
func (f *Follower[V, A]) LeaderSeq() uint64 { return f.leaderSeq.Load() }

// Lag returns LeaderSeq − AppliedSeq: the number of generations the
// follower trails the leader's journal, 0 when caught up.
func (f *Follower[V, A]) Lag() uint64 {
	l, a := f.leaderSeq.Load(), f.applied.Load()
	if l <= a {
		return 0
	}
	return l - a
}

// Records returns the number of records applied from the stream.
func (f *Follower[V, A]) Records() uint64 { return f.records.Load() }

// Resumes returns the number of reconnects after the first connection.
func (f *Follower[V, A]) Resumes() uint64 { return f.resumes.Load() }

// Reseeds returns the number of checkpoint re-seeds performed after
// the leader compacted past the follower's position.
func (f *Follower[V, A]) Reseeds() uint64 { return f.reseeds.Load() }

// Stalls returns the number of connections the stall watchdog dropped.
func (f *Follower[V, A]) Stalls() uint64 { return f.stalls.Load() }

// Snapshot returns the follower's newest published snapshot (nil before
// the initial computation finishes).
func (f *Follower[V, A]) Snapshot() *core.ResultSnapshot[V] { return f.eng.Snapshot() }

// SnapshotAt returns the retained snapshot for generation gen, exactly
// as the leader's SnapshotAt does (errors wrap
// core.ErrGenerationNotRetained).
func (f *Follower[V, A]) SnapshotAt(gen uint64) (*core.ResultSnapshot[V], error) {
	return f.eng.SnapshotAt(gen)
}

// RetainedGenerations reports the retained generation window.
func (f *Follower[V, A]) RetainedGenerations() (oldest, newest uint64) {
	return f.eng.RetainedGenerations()
}

// Cache returns the follower's query cache (nil when caching is off) —
// the same contract as Server.Cache, so the query API serves either.
func (f *Follower[V, A]) Cache() *qcache.Cache { return f.cache }
