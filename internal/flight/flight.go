// Package flight is the engine's black box: an always-on, fixed-capacity
// ring of structured lifecycle events that costs O(1) per event — one
// struct store under a mutex, zero allocation — and is safe to write
// from any goroutine concurrently with dumps.
//
// Every mutation batch is assigned a monotonically increasing trace ID
// at Submit; the serve loop, the durable journal and the WAL stamp their
// events with it, so a single batch's path — admitted, enqueued,
// coalesced, validated, journaled (with fsync latency), applied,
// published — can be reconstructed after the fact. Events that do not
// belong to a batch (health transitions, repair attempts) carry trace 0.
// The engine and the durable layer time their phases ("run",
// "apply_batch", "graph_apply", "refine", "hybrid", "recovery",
// "checkpoint") straight into the ring through Phase, so one event
// stream time-correlates all of it and no phase is timed anywhere else.
//
// The ring overwrites its oldest entries when full: the recorder is a
// flight recorder, not a log — it preserves the most recent window
// (sized by Options.Depth) so that when something goes wrong the lead-up
// is still there. Dump snapshots that window and emits it to slog; the
// serve layer triggers dumps on Degraded/Failed health transitions, and
// Handler serves the live ring and the last dump over HTTP
// (/debug/flight), filterable by trace ID and event kind.
//
// Concurrency design: the ring is a []Event and a write cursor behind
// one mutex. Record stores one struct under it and Snapshot copies the
// live window under it, so a dump taken in the middle of a write storm
// is exactly the newest window and Dropped is exact. (An earlier
// per-slot seqlock of atomics admitted torn events — a writer lapped by
// a full ring turn finished its field stores after the newer writer's
// commit — and its seven sequentially consistent stores per event
// measured slower than the uncontended lock.) All Recorder methods are
// nil-safe: a nil *Recorder records nothing and costs one nil check,
// mirroring the obs conventions.
package flight

import (
	"fmt"
	"log/slog"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Kind identifies what happened. The zero Kind is invalid, so an
// uninitialized slot can never masquerade as an event.
type Kind uint8

const (
	// KindAdmitted: a batch entered Submit and is headed for the queue.
	// A = edge weight.
	KindAdmitted Kind = iota + 1
	// KindRejected: a Submit refusal — closed/degraded/failed loop, or a
	// cancelled context while blocked on a full queue. A = edge weight.
	KindRejected
	// KindEnqueued: the batch entered the mutation queue. A = queue depth
	// after the enqueue.
	KindEnqueued
	// KindCoalesced: this trace's batch was folded into an earlier
	// batch's apply call. A = the absorbing (head) trace ID.
	KindCoalesced
	// KindValidated: the head batch passed validation at dequeue.
	// A = validation nanoseconds, B = total edge count.
	KindValidated
	// KindQuarantined: the batch failed validation at dequeue and was
	// rejected on its ticket. A = submission sequence number.
	KindQuarantined
	// KindJournaled: the batch was appended to the write-ahead log.
	// A = journal nanoseconds (including fsync), B = WAL sequence number.
	KindJournaled
	// KindJournalFailed: the journal append failed (the trigger for
	// degraded mode). A = nanoseconds spent, B = WAL sequence number.
	KindJournalFailed
	// KindFsync: a WAL fsync completed. A = fsync nanoseconds.
	KindFsync
	// KindFsyncFailed: a WAL fsync failed. A = nanoseconds spent.
	KindFsyncFailed
	// KindApplied: the engine finished applying the (possibly coalesced)
	// batch. A = apply nanoseconds, B = edge computations performed.
	KindApplied
	// KindPublished: the apply's result snapshot is published and its
	// tickets resolved. A = apply sequence number, B = end-to-end
	// nanoseconds since the head batch enqueued.
	KindPublished
	// KindHealth: a health state transition. A = from state, B = to state
	// (health.State numeric values).
	KindHealth
	// KindRepair: a degraded-mode Recover attempt. A = attempt number,
	// B = 1 on success, 0 on failure.
	KindRepair
	// KindPhase: one engine or durable-layer phase, delivered by Phase.
	// At is the phase's start; A = duration nanoseconds; the phase name
	// travels with the event (see Event.Note).
	KindPhase
	// KindReseed: a follower installed a leader checkpoint after log
	// compaction. A = applied sequence before, B = checkpoint sequence
	// after.
	KindReseed
	// KindStall: a follower's stream-stall watchdog dropped a silent
	// connection. A = observed silence in nanoseconds.
	KindStall
)

var kindNames = [...]string{
	KindAdmitted:      "admitted",
	KindRejected:      "rejected",
	KindEnqueued:      "enqueued",
	KindCoalesced:     "coalesced",
	KindValidated:     "validated",
	KindQuarantined:   "quarantined",
	KindJournaled:     "journaled",
	KindJournalFailed: "journal_failed",
	KindFsync:         "fsync",
	KindFsyncFailed:   "fsync_failed",
	KindApplied:       "applied",
	KindPublished:     "published",
	KindHealth:        "health",
	KindRepair:        "repair",
	KindPhase:         "phase",
	KindReseed:        "reseed",
	KindStall:         "stall",
}

// String returns the lowercase kind name used in dumps and the
// /debug/flight kind filter.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind maps a kind name back to its Kind, reporting whether the
// name is known.
func ParseKind(s string) (Kind, bool) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// Event is one recorded lifecycle event. A and B are kind-specific
// payloads (see the Kind constants); At is a Unix nanosecond timestamp.
type Event struct {
	// Seq is the event's global sequence number (the ring position it was
	// written at); strictly increasing across the recorder's lifetime.
	Seq uint64
	// Trace is the batch trace ID the event belongs to, 0 for events
	// without one (health transitions, out-of-band repairs).
	Trace uint64
	// Kind says what happened.
	Kind Kind
	// At is the event time in Unix nanoseconds (for KindPhase, the span's
	// start).
	At int64
	// A and B are the kind-specific payloads.
	A, B int64
	// phase is the span name of a KindPhase event.
	phase string
}

// Time returns the event timestamp.
func (e Event) Time() time.Time { return time.Unix(0, e.At) }

// Note renders the kind-specific payload human-readably; used by dumps
// and the HTTP endpoint, never on the hot path.
func (e Event) Note() string {
	switch e.Kind {
	case KindAdmitted:
		return fmt.Sprintf("weight=%d", e.A)
	case KindRejected:
		return fmt.Sprintf("weight=%d", e.A)
	case KindEnqueued:
		return fmt.Sprintf("queue_depth=%d", e.A)
	case KindCoalesced:
		return fmt.Sprintf("into_trace=%d", e.A)
	case KindValidated:
		return fmt.Sprintf("took=%v edges=%d", time.Duration(e.A), e.B)
	case KindQuarantined:
		return fmt.Sprintf("submission=%d", e.A)
	case KindJournaled, KindJournalFailed:
		return fmt.Sprintf("took=%v wal_seq=%d", time.Duration(e.A), e.B)
	case KindFsync, KindFsyncFailed:
		return fmt.Sprintf("took=%v", time.Duration(e.A))
	case KindApplied:
		return fmt.Sprintf("took=%v edge_computations=%d", time.Duration(e.A), e.B)
	case KindPublished:
		return fmt.Sprintf("apply_seq=%d e2e=%v", e.A, time.Duration(e.B))
	case KindHealth:
		return fmt.Sprintf("from=%d to=%d", e.A, e.B)
	case KindRepair:
		if e.B != 0 {
			return fmt.Sprintf("attempt=%d ok", e.A)
		}
		return fmt.Sprintf("attempt=%d failed", e.A)
	case KindPhase:
		return fmt.Sprintf("name=%s took=%v", e.phase, time.Duration(e.A))
	case KindReseed:
		return fmt.Sprintf("from_seq=%d to_seq=%d", e.A, e.B)
	case KindStall:
		return fmt.Sprintf("silent=%v", time.Duration(e.A))
	}
	return ""
}

// DefaultDepth is the ring capacity in events when Options.Depth is
// zero.
const DefaultDepth = 4096

// Options configures a Recorder. Every zero field takes the package
// default.
type Options struct {
	// Depth is the ring capacity in events, rounded up to a power of two.
	// Default DefaultDepth.
	Depth int
	// Logger receives dump summaries; nil uses slog.Default().
	Logger *slog.Logger
	// Metrics, when non-nil, receives the graphbolt_flight_* counters.
	Metrics *obs.Registry
}

// Metric names exported by this package.
const (
	MetricEvents  = "graphbolt_flight_events_total"
	MetricDropped = "graphbolt_flight_dropped_total"
	MetricDumps   = "graphbolt_flight_dumps_total"
)

type metrics struct {
	events  *obs.Counter
	dropped *obs.Counter
	dumps   *obs.Counter
}

func newMetrics(r *obs.Registry) metrics {
	if r == nil {
		return metrics{}
	}
	return metrics{
		events: r.Counter(MetricEvents,
			"Lifecycle events recorded into the flight ring."),
		dropped: r.Counter(MetricDropped,
			"Ring entries overwritten before they could appear in a dump."),
		dumps: r.Counter(MetricDumps,
			"Flight dumps emitted (health transitions, explicit)."),
	}
}

// RegisterMetrics pre-creates the flight metric set in r so the
// exposition endpoint shows every series (at zero) before a recorder is
// constructed. Idempotent, nil-safe.
func RegisterMetrics(r *obs.Registry) {
	newMetrics(r)
}

// Recorder is the flight recorder. Construct with New; all methods are
// safe for concurrent use and nil-safe.
type Recorder struct {
	// mu guards ring and cursor. Position p lives at ring[p&(len-1)];
	// cursor is the next position, i.e. the events ever recorded.
	mu     sync.Mutex
	ring   []Event
	cursor uint64

	// active is the trace ID of the batch currently on the apply path
	// (single-writer); the durable and WAL layers stamp their events
	// with it. applyStart is when that apply began (Unix nanoseconds, 0
	// when no apply is open). scratchJournal accumulates journal time
	// during the current apply so the serve loop can report it as a
	// phase.
	active         atomic.Uint64
	applyStart     atomic.Int64
	scratchJournal atomic.Int64

	ndumps atomic.Uint64

	dumpMu   sync.Mutex
	lastDump *Dump

	logger *slog.Logger
	met    metrics
}

// New builds a Recorder. A nil return never happens; to disable flight
// recording pass a nil *Recorder around instead.
func New(opts Options) *Recorder {
	depth := opts.Depth
	if depth <= 0 {
		depth = DefaultDepth
	}
	// Round up to a power of two so position→slot is a mask.
	n := 1
	for n < depth {
		n <<= 1
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	return &Recorder{
		ring:   make([]Event, n),
		logger: logger,
		met:    newMetrics(opts.Metrics),
	}
}

// Depth returns the ring capacity in events (0 on nil).
func (r *Recorder) Depth() int {
	if r == nil {
		return 0
	}
	return len(r.ring)
}

// Events returns the total number of events ever recorded.
func (r *Recorder) Events() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cursor
}

// Dropped returns the number of ring entries overwritten so far.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := uint64(len(r.ring)); r.cursor > n {
		return r.cursor - n
	}
	return 0
}

// Dumps returns the number of dumps emitted so far.
func (r *Recorder) Dumps() uint64 {
	if r == nil {
		return 0
	}
	return r.ndumps.Load()
}

// Record appends one event to the ring: O(1), allocation-free, safe
// from any goroutine.
func (r *Recorder) Record(k Kind, trace uint64, a, b int64) {
	r.record(Event{Kind: k, Trace: trace, At: time.Now().UnixNano(), A: a, B: b})
}

func (r *Recorder) record(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	ev.Seq = r.cursor
	r.ring[ev.Seq&uint64(len(r.ring)-1)] = ev
	r.cursor++
	r.mu.Unlock()
	r.met.events.Inc()
	if ev.Seq >= uint64(len(r.ring)) {
		r.met.dropped.Inc()
	}
}

// Phase records one completed phase ("run", "refine", "checkpoint",
// ...) that began at start and took duration, as a KindPhase event
// stamped with the active trace, so per-batch timelines and engine
// phases land in one time-correlated stream.
func (r *Recorder) Phase(name string, start time.Time, duration time.Duration) {
	if r == nil {
		return
	}
	r.record(Event{Kind: KindPhase, Trace: r.active.Load(), At: start.UnixNano(), A: int64(duration), phase: name})
}

// BeginApply marks trace as the batch on the apply path, stamps the
// apply's start time and clears the per-apply journal scratch. Called by
// the serve loop immediately before the apply call; single-writer by
// construction.
func (r *Recorder) BeginApply(trace uint64) {
	if r == nil {
		return
	}
	r.active.Store(trace)
	r.scratchJournal.Store(0)
	r.applyStart.Store(time.Now().UnixNano())
}

// EndApply clears the active trace and the apply's start time and
// returns the journal time the durable layer accumulated during the
// apply.
func (r *Recorder) EndApply() time.Duration {
	if r == nil {
		return 0
	}
	r.applyStart.Store(0)
	r.active.Store(0)
	return time.Duration(r.scratchJournal.Swap(0))
}

// OpenApply reports the apply in flight: its trace ID and how long it
// has been running. ok is false when no apply is open. An apply the
// engine cannot interrupt is visible here as an age that keeps growing.
func (r *Recorder) OpenApply() (trace uint64, age time.Duration, ok bool) {
	if r == nil {
		return 0, 0, false
	}
	start := r.applyStart.Load()
	if start == 0 {
		return 0, 0, false
	}
	return r.active.Load(), time.Since(time.Unix(0, start)), true
}

// ActiveTrace returns the trace ID currently on the apply path, 0 when
// none.
func (r *Recorder) ActiveTrace() uint64 {
	if r == nil {
		return 0
	}
	return r.active.Load()
}

// Journal records one WAL append made on behalf of the active trace and
// charges its duration to the current apply's journal phase.
func (r *Recorder) Journal(walSeq uint64, d time.Duration, failed bool) {
	if r == nil {
		return
	}
	k := KindJournaled
	if failed {
		k = KindJournalFailed
	} else {
		r.scratchJournal.Add(int64(d))
	}
	r.Record(k, r.active.Load(), int64(d), int64(walSeq))
}

// Fsync records one WAL fsync made on behalf of the active trace.
func (r *Recorder) Fsync(d time.Duration, failed bool) {
	if r == nil {
		return
	}
	k := KindFsync
	if failed {
		k = KindFsyncFailed
	}
	r.Record(k, r.active.Load(), int64(d), 0)
}

// Snapshot returns the events currently in the ring — the newest
// Depth() of them — oldest first. It is safe concurrently with writers.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.ring))
	if r.cursor <= n {
		return slices.Clone(r.ring[:r.cursor])
	}
	oldest := r.cursor & (n - 1)
	evs := make([]Event, 0, n)
	evs = append(evs, r.ring[oldest:]...)
	return append(evs, r.ring[:oldest]...)
}

// Dump is one captured ring snapshot.
type Dump struct {
	// Reason says what triggered the capture.
	Reason string `json:"reason"`
	// Focus is the trace ID the dump centers on (the failing batch), 0
	// when none.
	Focus uint64 `json:"focus,omitempty"`
	// At is when the capture was taken.
	At time.Time `json:"at"`
	// Dropped is the recorder's overwritten-entry count at capture time:
	// events older than Events[0] are gone.
	Dropped uint64 `json:"dropped"`
	// Events is the ring content, oldest first.
	Events []Event `json:"events"`
}

// Dump captures the ring, retains it as the last dump, logs a summary
// (plus the focus trace's timeline, when focus is nonzero), and returns
// it.
func (r *Recorder) Dump(reason string, focus uint64) *Dump {
	if r == nil {
		return nil
	}
	r.dumpMu.Lock()
	d := &Dump{
		Reason: reason,
		Focus:  focus,
		At:     time.Now(),
		Events: r.Snapshot(),
	}
	if len(d.Events) > 0 {
		// Every position before the oldest retained one was overwritten.
		d.Dropped = d.Events[0].Seq
	}
	r.lastDump = d
	r.dumpMu.Unlock()
	r.ndumps.Add(1)
	r.met.dumps.Inc()

	attrs := []any{
		"reason", reason,
		"events", len(d.Events),
		"dropped", d.Dropped,
	}
	if len(d.Events) > 0 {
		attrs = append(attrs,
			"window_start", time.Unix(0, d.Events[0].At),
			"window_end", time.Unix(0, d.Events[len(d.Events)-1].At))
	}
	if focus != 0 {
		attrs = append(attrs, "trace", focus, "timeline", renderTimeline(d.Events, focus))
	}
	r.logger.Warn("graphbolt: flight dump", attrs...)
	return d
}

// LastDump returns the most recent dump, nil when none has been taken.
func (r *Recorder) LastDump() *Dump {
	if r == nil {
		return nil
	}
	r.dumpMu.Lock()
	defer r.dumpMu.Unlock()
	return r.lastDump
}

// renderTimeline formats the events belonging to trace as one compact
// string for the dump's log line. Cold path only.
func renderTimeline(events []Event, trace uint64) string {
	var sb strings.Builder
	var t0 int64
	for _, e := range events {
		if e.Trace != trace {
			continue
		}
		if t0 == 0 {
			t0 = e.At
		}
		if sb.Len() > 0 {
			sb.WriteString(" → ")
		}
		fmt.Fprintf(&sb, "%s@%v", e.Kind, time.Duration(e.At-t0).Round(time.Microsecond))
		if note := e.Note(); note != "" {
			fmt.Fprintf(&sb, "(%s)", note)
		}
	}
	if sb.Len() == 0 {
		return "(no events retained for trace)"
	}
	return sb.String()
}
