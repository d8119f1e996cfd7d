// Package serve provides the ingest half of the read/write-separated
// serving architecture: a single-writer apply loop fed by a bounded
// mutation queue.
//
// The engine's BSP guarantee makes the split safe: every completed
// ApplyBatch publishes an immutable result snapshot (core.ResultSnapshot)
// that readers access lock-free, so the only synchronization problem
// left is ordering writers — which this package solves by funneling all
// mutations through one goroutine. Producers call Submit from any
// goroutine; the loop dequeues batches, optionally coalesces compatible
// neighbors up to a size cap, and applies them one at a time to the
// wrapped engine. Wrapping a durable.Engine preserves its
// journal-before-mutate ordering, because the journaling happens inside
// the same single-threaded apply call.
//
// Coalescing merges a contiguous run of queued batches into one
// ApplyBatch call, amortizing refinement cost under bursty ingest. Two
// batches are compatible unless the later one deletes an edge key the
// accumulated batch adds: within one graph.Batch, deletions match only
// pre-batch edges, so folding such a pair into one batch would change
// which edge instance dies. Incompatible batches simply end the run and
// are applied in a later call; batches are never split or reordered.
//
// # Failure domains
//
// The loop classifies apply failures into three domains rather than
// latching on the first error:
//
//   - Poison batches (graph.ErrInvalidBatch): the batch itself is
//     malformed. It is rejected on its ticket, recorded in a bounded
//     quarantine ring (Quarantined), and the loop moves on — one bad
//     producer cannot take down ingest. Validation runs at dequeue, so
//     a poison batch never reaches the engine.
//
//   - Infrastructure faults (the applier implements Recoverer and
//     reports an Ailment): the engine's in-memory state is intact but
//     its storage is refusing writes. The loop enters degraded mode —
//     Submit fails fast with ErrDegraded while reads keep serving —
//     holds the in-flight batch, and retries Recover under capped
//     exponential backoff until the fault clears, then replays the held
//     batch and the queue and returns to healthy.
//
//   - Everything else — a mid-apply panic (parallel.PanicError) leaves
//     the engine state undefined — is terminal: the loop latches the
//     failure (Err), fails all queued tickets, and refuses further
//     submissions. A durable engine can be reopened from its checkpoint
//     and journal.
//
// Health transitions are published through an optional health.Tracker,
// and an optional watchdog flags apply calls that exceed a deadline.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/graph"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Applier is the single-writer mutation target: core.Engine and
// durable.Engine both satisfy it.
type Applier interface {
	ApplyBatch(graph.Batch) (core.Stats, error)
}

// Recoverer is the optional self-healing contract an Applier may
// implement (durable.Engine does). Ailment reports the storage fault
// currently blocking writes (nil when healthy); Recover attempts to
// clear it. Both are called only from the apply goroutine, preserving
// the single-writer invariant.
type Recoverer interface {
	Ailment() error
	Recover() error
}

// Policy selects what Submit does when the queue is full.
type Policy int

const (
	// Block makes Submit wait for queue space (or context cancellation).
	// The default: backpressure propagates to producers.
	Block Policy = iota
	// Reject makes Submit fail fast with ErrQueueFull.
	Reject
)

// Default sizing. DefaultQueueDepth bounds memory under producer bursts;
// DefaultMaxBatchEdges caps how large a coalesced batch may grow (larger
// merges amortize refinement better but raise per-apply latency);
// DefaultQuarantineDepth bounds the poison-batch ring.
const (
	DefaultQueueDepth      = 64
	DefaultMaxBatchEdges   = 4096
	DefaultQuarantineDepth = 32
)

// Typed failure sentinels, for errors.Is.
var (
	// ErrQueueFull reports a Submit rejected under the Reject policy.
	// The error actually returned wraps this sentinel in a
	// *RetryableError carrying a RetryAfter hint: match with
	// errors.Is(err, ErrQueueFull), extract the hint with RetryAfter.
	ErrQueueFull = errors.New("serve: mutation queue full")
	// ErrClosed reports a Submit after Close.
	ErrClosed = errors.New("serve: apply loop closed")
	// ErrDegraded reports a write refused while the engine's storage is
	// being repaired. Reads stay available; the submission can be
	// retried once recovery completes.
	ErrDegraded = errors.New("serve: engine degraded, writes disabled")
)

// DefaultRetryAfter is the backoff hint attached to retryable refusals.
const DefaultRetryAfter = 25 * time.Millisecond

// RetryableError is the shape of transient Submit refusals: a sentinel
// for errors.Is plus a client backoff hint. The loop's one such refusal
// is ErrQueueFull under the Reject policy — the queue drains — so
// clients back off RetryAfter, then resubmit.
type RetryableError struct {
	// Sentinel is ErrQueueFull (a read replica refuses writes with its
	// own sentinel in the same shape).
	Sentinel error
	// After is the suggested backoff before resubmitting. Always
	// positive.
	After time.Duration
	// Detail optionally elaborates the refusal.
	Detail string
}

// Error formats the sentinel with the hint and detail.
func (e *RetryableError) Error() string {
	msg := fmt.Sprintf("%v (retry after %v)", e.Sentinel, e.After)
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	return msg
}

// Unwrap exposes the sentinel to errors.Is.
func (e *RetryableError) Unwrap() error { return e.Sentinel }

// RetryAfter returns the suggested client backoff.
func (e *RetryableError) RetryAfter() time.Duration { return e.After }

// RetryAfter extracts the backoff hint from a Submit error, reporting
// whether err (or anything it wraps) is a retryable refusal. Callers
// back off uniformly:
//
//	if after, ok := serve.RetryAfter(err); ok {
//	    time.Sleep(after)
//	    // resubmit
//	}
func RetryAfter(err error) (time.Duration, bool) {
	var re *RetryableError
	if errors.As(err, &re) {
		return re.After, true
	}
	return 0, false
}

// Options configures a Loop.
type Options struct {
	// QueueDepth bounds the number of queued (unapplied) batches.
	// Default DefaultQueueDepth.
	QueueDepth int

	// MaxBatchEdges caps the total edge count (Add+Del) of a coalesced
	// batch; merging stops at the cap. A single submitted batch larger
	// than the cap is still applied whole — batches are never split.
	// Default DefaultMaxBatchEdges.
	MaxBatchEdges int

	// DisableCoalescing applies every submitted batch individually.
	DisableCoalescing bool

	// Policy selects Block (default) or Reject behavior on a full queue.
	Policy Policy

	// QuarantineDepth bounds the ring of retained poison batches; the
	// oldest record is evicted when it overflows. Default
	// DefaultQuarantineDepth.
	QuarantineDepth int

	// Backoff paces Recover retries in degraded mode. The zero value
	// applies the backoff package defaults.
	Backoff backoff.Policy

	// ApplyDeadline, when positive, arms a watchdog on every apply call:
	// exceeding it raises the stuck-applies gauge, logs a warning, and
	// invokes OnStuck. The apply is not interrupted — the engine has no
	// cancellation points — so this is a flag, not a kill switch.
	ApplyDeadline time.Duration

	// OnStuck, when non-nil, is called (from a timer goroutine) when an
	// apply exceeds ApplyDeadline, with the attempt's sequence number
	// and the elapsed time at that moment. It may fire shortly after a
	// slow apply completes.
	OnStuck func(seq uint64, elapsed time.Duration)

	// Health, when non-nil, receives Healthy/Degraded/Failed transitions
	// as the loop changes modes.
	Health *health.Tracker

	// Logger receives degraded-mode and watchdog warnings; nil uses
	// slog.Default().
	Logger *slog.Logger

	// Metrics, when non-nil, receives queue instrumentation (depth,
	// submitted/applied/rejected/coalesced counters, queue-wait
	// histogram). Nil means instrumentation is off.
	Metrics *obs.Registry

	// OnApply, when non-nil, is called from the apply goroutine after
	// every ApplyBatch returns (success or failure). Keep it fast; it
	// runs on the write path.
	OnApply func(Applied)

	// Flight, when non-nil, records every batch's lifecycle — admitted,
	// rejected, enqueued, coalesced, validated, quarantined, applied,
	// published — into the flight ring, completes a BatchTrace with a
	// per-phase latency breakdown at publication, and forces a dump on
	// transitions to Degraded/Failed when Health is also set. Trace IDs
	// are assigned at Submit whether or not a recorder is present;
	// without one they are still returned on tickets but nothing is
	// recorded.
	Flight *flight.Recorder

	// SlowBatch, when positive, is the end-to-end latency (head-batch
	// enqueue to publication) above which a successful apply is captured
	// as a slow batch: the recorder takes a throttled dump focused on the
	// batch's trace and a warning naming the trace ID is logged. Zero or
	// negative leaves slow-batch capture off. Ignored without Flight.
	SlowBatch time.Duration
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = DefaultQueueDepth
	}
	if o.MaxBatchEdges <= 0 {
		o.MaxBatchEdges = DefaultMaxBatchEdges
	}
	if o.QuarantineDepth <= 0 {
		o.QuarantineDepth = DefaultQuarantineDepth
	}
	if o.Metrics == nil {
		o.Metrics = defaultMetrics.Load()
	}
	return o
}

func (o Options) logger() *slog.Logger {
	if o.Logger != nil {
		return o.Logger
	}
	return slog.Default()
}

// Applied reports one completed apply call.
type Applied struct {
	// Seq is the 1-based count of successful apply calls; with a
	// quiescent start it equals the snapshot generation delta since the
	// loop began. A failed or quarantined batch reports the attempt
	// number (last successful Seq + 1) without consuming it.
	Seq uint64
	// Batches is the number of submitted batches merged into this apply
	// (1 when no coalescing happened).
	Batches int
	// Stats is the engine work the apply reported.
	Stats core.Stats
	// QueueWait is the longest time any batch merged into this apply
	// spent queued before the apply call started.
	QueueWait time.Duration
	// Err is the failure delivered to this ticket, if any: a quarantined
	// batch's validation error, ErrDegraded when the loop shut down
	// before recovery completed, or the loop's terminal failure.
	Err error
	// Trace is the completed lifecycle record for this apply: the head
	// batch's trace ID, every coalesced sibling's ID, and the per-phase
	// latency breakdown. Populated whether or not a flight recorder is
	// configured (trace IDs are loop-owned); Trace.ID is never 0.
	Trace flight.BatchTrace
}

// PoisonBatch is one quarantined batch: rejected at dequeue, never
// applied, retained for diagnosis.
type PoisonBatch struct {
	// Seq is the batch's 1-based submission number.
	Seq uint64
	// Batch is the rejected batch, as submitted.
	Batch graph.Batch
	// Err is why it was rejected (wraps graph.ErrInvalidBatch).
	Err error
	// At is when it was quarantined.
	At time.Time
}

// Ticket tracks one submitted batch through the loop.
type Ticket struct {
	done  chan Applied
	trace uint64
}

// Trace returns the batch's trace ID, assigned at Submit. Look the
// completed lifecycle up with Recorder.Trace (or Server.Trace) after
// the ticket resolves; the resolved Applied carries it too.
func (t *Ticket) Trace() uint64 { return t.trace }

// Done returns a channel that receives exactly one Applied once the
// batch's apply call completes (possibly covering coalesced neighbors).
func (t *Ticket) Done() <-chan Applied { return t.done }

// Wait blocks until the batch is applied or ctx is done.
func (t *Ticket) Wait(ctx context.Context) (Applied, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case a := <-t.done:
		return a, a.Err
	case <-ctx.Done():
		return Applied{}, ctx.Err()
	}
}

// pending is one queued batch.
type pending struct {
	b        graph.Batch
	t        *Ticket
	seq      uint64 // 1-based submission number
	trace    uint64 // flight trace ID, assigned at Submit
	enqueued time.Time
}

// Loop is the single-writer apply loop. Construct with NewLoop; Submit
// is safe from any goroutine. All mutations of the wrapped Applier must
// go through the loop — mutating it directly breaks the single-writer
// invariant.
type Loop struct {
	applier Applier
	opts    Options
	met     loopMetrics

	rec      *flight.Recorder // nil-safe; nil records nothing
	traceSeq atomic.Uint64    // trace IDs are loop-owned, 1-based

	mu         sync.Mutex
	cond       *sync.Cond
	q          []pending
	closed     bool
	failure    error
	degraded   error // ErrDegraded-wrapped cause while in degraded mode
	inflight   bool
	seq        uint64 // successful applies
	submits    uint64 // accepted submissions (keys quarantine records)
	quarantine []PoisonBatch
	nQuar      uint64 // total ever quarantined (ring evicts)

	closeOnce sync.Once
	closeCh   chan struct{} // closed by Close; interrupts recovery backoff
	done      chan struct{}
}

// NewLoop starts the apply goroutine over a. The loop owns all writes
// to a until Close.
func NewLoop(a Applier, opts Options) *Loop {
	opts = opts.withDefaults()
	l := &Loop{
		applier: a,
		opts:    opts,
		met:     newLoopMetrics(opts.Metrics),
		rec:     opts.Flight,
		closeCh: make(chan struct{}),
		done:    make(chan struct{}),
	}
	if l.rec != nil && opts.Health != nil {
		// The recorder is the black box: every health transition lands in
		// the event stream, and the degraded/failed ones — the moments a
		// postmortem needs the lead-up for — force a dump.
		rec := l.rec
		opts.Health.OnTransition(func(from, to health.State, cause error) {
			rec.Record(flight.KindHealth, rec.ActiveTrace(), int64(from), int64(to))
			if to == health.Degraded || to == health.Failed {
				rec.Dump("health transition "+from.String()+"→"+to.String(), rec.ActiveTrace())
			}
		})
	}
	l.cond = sync.NewCond(&l.mu)
	go l.run()
	return l
}

// Flight returns the loop's flight recorder, nil when recording is off.
func (l *Loop) Flight() *flight.Recorder { return l.rec }

// batchWeight is a batch's total edge count, floored at 1 so empty
// batches still register; the admitted and rejected flight events
// carry it.
func batchWeight(b graph.Batch) int {
	if n := len(b.Add) + len(b.Del); n > 0 {
		return n
	}
	return 1
}

// Submit enqueues a batch. Under the Block policy it waits for queue
// space (bounded by ctx); under Reject it fails fast with ErrQueueFull
// (wrapped in a *RetryableError carrying a backoff hint). The returned
// Ticket resolves when the batch's apply call completes; fire-and-forget
// callers may discard it. Batch validation happens at dequeue, on the
// apply goroutine: a malformed batch resolves its ticket with the
// validation error and is quarantined rather than failing the loop.
//
// A nil ctx means no deadline; an already-cancelled ctx returns its
// error without enqueuing under either policy. Submitting after Close
// returns ErrClosed; in degraded mode, ErrDegraded; after a terminal
// failure, that failure.
func (l *Loop) Submit(ctx context.Context, b graph.Batch) (*Ticket, error) {
	tr := l.traceSeq.Add(1)
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	w := batchWeight(b)
	l.rec.Record(flight.KindAdmitted, tr, int64(w), 0)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.opts.Policy == Reject {
		if err := l.submitErrLocked(); err != nil {
			l.rec.Record(flight.KindRejected, tr, int64(w), 0)
			return nil, err
		}
		if len(l.q) >= l.opts.QueueDepth {
			l.met.rejected.Inc()
			l.rec.Record(flight.KindRejected, tr, int64(w), 0)
			return nil, &RetryableError{Sentinel: ErrQueueFull, After: DefaultRetryAfter}
		}
	} else {
		if err := l.awaitLocked(ctx, func() bool {
			return l.submitErrLocked() != nil || len(l.q) < l.opts.QueueDepth
		}); err != nil {
			l.rec.Record(flight.KindRejected, tr, int64(w), 0)
			return nil, err
		}
		if err := l.submitErrLocked(); err != nil {
			l.rec.Record(flight.KindRejected, tr, int64(w), 0)
			return nil, err
		}
	}
	t := &Ticket{done: make(chan Applied, 1), trace: tr}
	l.submits++
	l.q = append(l.q, pending{b: b, t: t, seq: l.submits, trace: tr, enqueued: time.Now()})
	l.met.submitted.Inc()
	l.met.depth.Set(float64(len(l.q)))
	l.rec.Record(flight.KindEnqueued, tr, int64(len(l.q)), 0)
	l.cond.Broadcast()
	return t, nil
}

// submitErrLocked returns why new submissions are refused, or nil.
// Precedence: terminal failure > degraded > closed.
func (l *Loop) submitErrLocked() error {
	if l.failure != nil {
		return l.failure
	}
	if l.degraded != nil {
		return l.degraded
	}
	if l.closed {
		return ErrClosed
	}
	return nil
}

// awaitLocked waits on the loop's condition until pred holds or ctx is
// done. l.mu must be held; it is held again on return.
func (l *Loop) awaitLocked(ctx context.Context, pred func() bool) error {
	if pred() {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	stop := context.AfterFunc(ctx, func() {
		l.mu.Lock()
		l.cond.Broadcast()
		l.mu.Unlock()
	})
	defer stop()
	for !pred() {
		if err := ctx.Err(); err != nil {
			return err
		}
		l.cond.Wait()
	}
	return nil
}

// Sync blocks until the queue is fully drained and no apply is in
// flight (or ctx is done). It returns the loop's terminal failure, if
// any. Batches submitted concurrently with Sync extend the wait.
func (l *Loop) Sync(ctx context.Context) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.awaitLocked(ctx, func() bool {
		return l.failure != nil || (len(l.q) == 0 && !l.inflight)
	}); err != nil {
		return err
	}
	return l.failure
}

// Close stops accepting submissions, drains the queue, and waits for
// the apply goroutine to exit (bounded by ctx; nil means wait
// indefinitely). Closing in degraded mode interrupts the recovery
// backoff; the held batch and any queued batches fail with ErrDegraded.
// It returns the loop's terminal failure, if any. Close is idempotent.
func (l *Loop) Close(ctx context.Context) error {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
	l.closeOnce.Do(func() { close(l.closeCh) })
	if ctx == nil {
		<-l.done
	} else {
		select {
		case <-l.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failure
}

// Done returns a channel closed when the apply goroutine has exited
// (after Close drained the queue, or after a terminal failure).
func (l *Loop) Done() <-chan struct{} { return l.done }

// Seq returns the number of successful apply calls completed so far.
func (l *Loop) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Depth returns the current queue length.
func (l *Loop) Depth() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.q)
}

// Err returns the loop's terminal failure, or nil. A failed loop no
// longer accepts submissions: the wrapped engine's in-memory state is
// undefined after a mid-apply panic, so it must be discarded — a
// durable engine can be reopened from its checkpoint and journal.
// Quarantined batches and degraded episodes are not terminal and never
// appear here.
func (l *Loop) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failure
}

// Quarantined returns the retained poison batches, oldest first (the
// ring keeps the most recent Options.QuarantineDepth records).
func (l *Loop) Quarantined() []PoisonBatch {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]PoisonBatch(nil), l.quarantine...)
}

// QuarantinedTotal returns the number of batches ever quarantined,
// including records the ring has evicted.
func (l *Loop) QuarantinedTotal() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nQuar
}

// quarantineLocked records a poison batch in the bounded ring.
// l.mu must be held.
func (l *Loop) quarantineLocked(pb PoisonBatch) {
	if len(l.quarantine) >= l.opts.QuarantineDepth {
		copy(l.quarantine, l.quarantine[1:])
		l.quarantine = l.quarantine[:len(l.quarantine)-1]
	}
	l.quarantine = append(l.quarantine, pb)
	l.nQuar++
	l.met.quarantined.Inc()
	l.met.quarantineSize.Set(float64(len(l.quarantine)))
}

// run is the single-writer apply goroutine.
func (l *Loop) run() {
	defer close(l.done)
	for {
		l.mu.Lock()
		for len(l.q) == 0 && !l.closed && l.failure == nil {
			l.cond.Wait()
		}
		if len(l.q) == 0 || l.failure != nil {
			// Closed and drained, or terminally failed: fail whatever is
			// still queued so no Ticket waits forever.
			failQ := l.q
			l.q = nil
			failure := l.failure
			l.met.depth.Set(0)
			l.cond.Broadcast()
			l.mu.Unlock()
			for _, p := range failQ {
				bt := flight.BatchTrace{
					ID: p.trace, Traces: []uint64{p.trace}, Batches: 1,
					EnqueuedAt: p.enqueued, CompletedAt: time.Now(),
				}
				if failure != nil {
					bt.Err = failure.Error()
				}
				l.rec.CompleteTrace(bt)
				p.t.done <- Applied{Err: failure, Trace: bt}
			}
			return
		}
		// Authoritative validation happens here, at the head of the
		// queue: a poison batch is quarantined and its ticket rejected
		// without ever reaching the engine — or latching the loop.
		dequeueAt := time.Now()
		verr := l.q[0].b.Validate()
		vDur := time.Since(dequeueAt)
		if verr != nil {
			p := l.q[0]
			l.q[0] = pending{}
			l.q = l.q[1:]
			rejErr := fmt.Errorf("serve: batch quarantined: %w", verr)
			l.quarantineLocked(PoisonBatch{Seq: p.seq, Batch: p.b, Err: rejErr, At: time.Now()})
			attempt := l.seq + 1
			l.met.depth.Set(float64(len(l.q)))
			l.cond.Broadcast()
			l.mu.Unlock()
			l.opts.logger().Warn("graphbolt: batch quarantined",
				"submission", p.seq, "trace", p.trace, "error", verr)
			l.rec.Record(flight.KindQuarantined, p.trace, int64(p.seq), 0)
			bt := flight.BatchTrace{
				ID: p.trace, Traces: []uint64{p.trace}, Batches: 1,
				EnqueuedAt: p.enqueued, CompletedAt: time.Now(), Err: rejErr.Error(),
				Phases: flight.Phases{QueueWait: dequeueAt.Sub(p.enqueued), Validate: vDur},
			}
			l.rec.CompleteTrace(bt)
			p.t.done <- Applied{Seq: attempt, Batches: 1, Err: rejErr, Trace: bt}
			continue
		}
		headTrace, headEnqueued := l.q[0].trace, l.q[0].enqueued
		l.rec.Record(flight.KindValidated, headTrace, int64(vDur),
			int64(len(l.q[0].b.Add)+len(l.q[0].b.Del)))
		coalesceStart := time.Now()
		batch, tickets, traces, waits := l.popLocked()
		coalesceDur := time.Since(coalesceStart)
		l.inflight = true
		l.met.depth.Set(float64(len(l.q)))
		attempt := l.seq + 1
		l.mu.Unlock()

		var maxWait time.Duration
		for _, w := range waits {
			l.met.queueWait.Observe(w.Seconds())
			if w > maxWait {
				maxWait = w
			}
		}
		l.rec.BeginApply(headTrace)
		start := time.Now()
		st, err := l.applyWithRecovery(batch, attempt)
		applyEnd := time.Now()
		took := applyEnd.Sub(start)
		journal := l.rec.EndApply()

		l.mu.Lock()
		res := Applied{Seq: attempt, Batches: len(tickets), Stats: st, QueueWait: maxWait, Err: err}
		l.inflight = false
		switch {
		case err == nil:
			l.seq++
			l.met.applied.Inc()
			if n := len(tickets) - 1; n > 0 {
				l.met.coalesced.Add(int64(n))
			}
		case errors.Is(err, ErrDegraded):
			// Shutdown interrupted recovery: the batch was never applied
			// and the engine state is intact — not terminal. Remaining
			// queued batches drain through the same path.
			l.met.applyErrors.Inc()
		default:
			// Mid-apply panic or unrecoverable fault: terminal.
			l.failure = fmt.Errorf("serve: apply: %w", err)
			res.Err = l.failure
			l.met.applyErrors.Inc()
			l.opts.Health.Set(health.Failed, l.failure)
		}
		cb := l.opts.OnApply
		l.cond.Broadcast()
		l.mu.Unlock()

		// Complete the batch's lifecycle record: the phase breakdown plus
		// the merged trace set, published under the head ID and every
		// coalesced sibling's ID. Apply excludes the journal time the
		// durable layer charged during the call, so the phases stay
		// disjoint and their sum tracks the observed end-to-end latency.
		if err == nil {
			l.rec.Record(flight.KindApplied, headTrace, int64(took), int64(st.EdgeComputations))
		}
		completedAt := time.Now()
		applyPhase := took - journal
		if applyPhase < 0 {
			applyPhase = 0
		}
		bt := flight.BatchTrace{
			ID: headTrace, Traces: traces, Batches: len(tickets),
			EnqueuedAt: headEnqueued, CompletedAt: completedAt,
			Phases: flight.Phases{
				QueueWait: dequeueAt.Sub(headEnqueued),
				Validate:  vDur,
				Coalesce:  coalesceDur,
				Journal:   journal,
				Apply:     applyPhase,
				Publish:   completedAt.Sub(applyEnd),
			},
		}
		if res.Err != nil {
			bt.Err = res.Err.Error()
		} else {
			bt.Seq = attempt
			l.rec.Record(flight.KindPublished, headTrace, int64(attempt),
				int64(completedAt.Sub(headEnqueued)))
		}
		l.rec.CompleteTrace(bt)
		res.Trace = bt
		if slow := l.opts.SlowBatch; err == nil && slow > 0 && l.rec != nil {
			if e2e := completedAt.Sub(headEnqueued); e2e > slow {
				l.rec.SlowBatch(headTrace, e2e, slow)
				l.opts.logger().Warn("graphbolt: slow batch",
					"trace", headTrace, "seq", attempt, "e2e", e2e,
					"threshold", slow, "batches", len(tickets),
					"queue_wait", bt.Phases.QueueWait, "journal", journal,
					"apply", applyPhase)
			}
		}

		for _, t := range tickets {
			t.done <- res
		}
		if cb != nil {
			cb(res)
		}
		if err == nil {
			// A successful apply can still leave an out-of-band ailment —
			// a checkpoint that failed after the batch landed. The batch's
			// tickets already resolved (retrying would apply it twice);
			// heal the fault before dequeuing the next batch.
			if rec, ok := l.applier.(Recoverer); ok && rec.Ailment() != nil {
				l.supervise(rec, rec.Ailment())
			}
		}
	}
}

// applyWithRecovery runs one apply attempt, supervising degraded-mode
// recovery: while the applier reports a recoverable ailment, the batch
// is held and retried after each successful Recover. Returns the
// terminal outcome for this batch — success, a wrapped ErrDegraded if
// the loop closed mid-recovery, or an unrecoverable error.
func (l *Loop) applyWithRecovery(batch graph.Batch, attempt uint64) (core.Stats, error) {
	for {
		st, err := l.applyOnce(batch, attempt)
		if err == nil {
			return st, nil
		}
		rec, recoverable := l.applier.(Recoverer)
		var pe *parallel.PanicError
		if errors.As(err, &pe) || errors.Is(err, graph.ErrInvalidBatch) {
			return st, err
		}
		if !recoverable || rec.Ailment() == nil {
			return st, err
		}
		if !l.supervise(rec, err) {
			return st, fmt.Errorf("%w (closed during recovery): %v", ErrDegraded, err)
		}
		// Recovered: replay the held batch.
	}
}

// applyOnce calls the engine, arming the stuck-apply watchdog when
// configured.
func (l *Loop) applyOnce(batch graph.Batch, attempt uint64) (core.Stats, error) {
	if l.opts.ApplyDeadline <= 0 {
		return l.applier.ApplyBatch(batch)
	}
	start := time.Now()
	var fired atomic.Bool
	timer := time.AfterFunc(l.opts.ApplyDeadline, func() {
		l.met.stuckApplies.Set(1)
		l.met.watchdogStalls.Inc()
		fired.Store(true)
		elapsed := time.Since(start)
		l.opts.logger().Warn("graphbolt: apply exceeded deadline",
			"seq", attempt, "deadline", l.opts.ApplyDeadline, "elapsed", elapsed)
		if l.opts.OnStuck != nil {
			l.opts.OnStuck(attempt, elapsed)
		}
	})
	st, err := l.applier.ApplyBatch(batch)
	timer.Stop()
	if fired.Load() {
		l.met.stuckApplies.Set(0)
	}
	return st, err
}

// supervise runs the degraded-mode recovery loop: writes fail fast
// with ErrDegraded while Recover is retried under the configured
// backoff. Returns true once recovery succeeds, false if the loop was
// closed first. Runs on the apply goroutine.
func (l *Loop) supervise(rec Recoverer, cause error) bool {
	wrapped := fmt.Errorf("%w: %v", ErrDegraded, cause)
	l.mu.Lock()
	l.degraded = wrapped
	l.cond.Broadcast() // blocked submitters fail fast now
	l.mu.Unlock()
	l.opts.Health.Set(health.Degraded, cause)
	l.opts.logger().Warn("graphbolt: entering degraded mode", "cause", cause)

	healed := false
	for attempt := 0; ; attempt++ {
		delay := l.opts.Backoff.Delay(attempt)
		l.met.recoveryBackoff.Observe(delay.Seconds())
		if !backoff.Sleep(delay, l.closeCh) {
			break // Close interrupted the backoff
		}
		l.met.recoveryAttempts.Inc()
		if err := rec.Recover(); err != nil {
			l.rec.Record(flight.KindRepair, l.rec.ActiveTrace(), int64(attempt+1), 0)
			l.opts.Health.Set(health.Degraded, err) // refresh the cause
			l.mu.Lock()
			l.degraded = fmt.Errorf("%w: %v", ErrDegraded, err)
			l.mu.Unlock()
			continue
		}
		l.rec.Record(flight.KindRepair, l.rec.ActiveTrace(), int64(attempt+1), 1)
		healed = true
		break
	}
	if !healed {
		return false
	}
	l.met.recoveries.Inc()
	l.mu.Lock()
	l.degraded = nil
	l.cond.Broadcast()
	l.mu.Unlock()
	l.opts.Health.Set(health.Healthy, nil)
	l.opts.logger().Info("graphbolt: recovered, leaving degraded mode")
	return true
}

// edgeKey identifies an edge by endpoints, the granularity deletions
// match at.
type edgeKey struct{ from, to graph.VertexID }

// popLocked dequeues the next batch and, unless coalescing is disabled,
// merges compatible successors up to Options.MaxBatchEdges. It returns
// the batch to apply, the tickets it covers, the covered trace IDs
// (head first) and each batch's time in queue. Every folded sibling
// gets a coalesced event naming the absorbing head trace. The head
// batch has been validated by the caller; a candidate that fails
// validation ends the merge run so it reaches the head of the queue —
// and the quarantine — on its own. l.mu must be held.
func (l *Loop) popLocked() (graph.Batch, []*Ticket, []uint64, []time.Duration) {
	now := time.Now()
	first := l.q[0]
	l.q[0] = pending{}
	l.q = l.q[1:]
	acc := first.b
	tickets := []*Ticket{first.t}
	traces := []uint64{first.trace}
	waits := []time.Duration{now.Sub(first.enqueued)}
	if l.opts.DisableCoalescing {
		return acc, tickets, traces, waits
	}

	size := len(acc.Add) + len(acc.Del)
	var addKeys map[edgeKey]struct{}
	merged := false
	for len(l.q) > 0 {
		nb := l.q[0].b
		if size+len(nb.Add)+len(nb.Del) > l.opts.MaxBatchEdges {
			break
		}
		if nb.Validate() != nil {
			break // poison: keep it un-merged for its own quarantine
		}
		if addKeys == nil {
			addKeys = make(map[edgeKey]struct{}, len(acc.Add))
			for _, e := range acc.Add {
				addKeys[edgeKey{e.From, e.To}] = struct{}{}
			}
		}
		if delHitsPendingAdd(nb.Del, addKeys) {
			break
		}
		if !merged {
			// Copy before extending: the submitted slices belong to the
			// producers.
			acc = graph.Batch{
				Add: append([]graph.Edge(nil), acc.Add...),
				Del: append([]graph.Edge(nil), acc.Del...),
			}
			merged = true
		}
		acc.Add = append(acc.Add, nb.Add...)
		acc.Del = append(acc.Del, nb.Del...)
		for _, e := range nb.Add {
			addKeys[edgeKey{e.From, e.To}] = struct{}{}
		}
		size += len(nb.Add) + len(nb.Del)
		tickets = append(tickets, l.q[0].t)
		traces = append(traces, l.q[0].trace)
		waits = append(waits, now.Sub(l.q[0].enqueued))
		l.rec.Record(flight.KindCoalesced, l.q[0].trace, int64(first.trace), 0)
		l.q[0] = pending{}
		l.q = l.q[1:]
	}
	return acc, tickets, traces, waits
}

// delHitsPendingAdd reports whether any deletion targets an edge key the
// accumulated batch would add. Such a pair must stay in separate
// batches: within one batch, deletions match only pre-batch edge
// instances, so merging would spare the pending addition and delete a
// pre-existing parallel edge instead — diverging from sequential
// application.
func delHitsPendingAdd(del []graph.Edge, addKeys map[edgeKey]struct{}) bool {
	for _, e := range del {
		if _, ok := addKeys[edgeKey{e.From, e.To}]; ok {
			return true
		}
	}
	return false
}
