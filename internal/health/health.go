// Package health tracks a serving process's operational state as a
// tiny state machine — Healthy, Degraded, Failed — with the cause and
// time of the last transition. The serve layer drives it (journal
// faults degrade, terminal faults fail, successful recovery heals);
// operators read it through the graphbolt_health_state gauge and the
// /healthz endpoint.
//
// A nil *Tracker is valid and inert, mirroring the obs conventions:
// components hold an unconditional handle and pay one nil check when
// health tracking is off.
package health

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// State is the coarse operational state of the engine.
type State int32

const (
	// Healthy: reads and writes both served.
	Healthy State = iota
	// Degraded: reads served, writes fail fast while a supervisor
	// retries the underlying fault (journal repair, checkpoint retry).
	Degraded
	// Failed: the engine's in-memory state is no longer trustworthy;
	// the serve loop has latched and the process should be replaced.
	Failed
)

// String returns the lowercase state name used in logs, metrics help
// text and the /healthz payload.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Failed:
		return "failed"
	}
	return "unknown"
}

// Metric names exported by this package.
const (
	MetricState       = "graphbolt_health_state"
	MetricTransitions = "graphbolt_health_transitions_total"
)

// RegisterMetrics registers the health metrics in r (idempotent,
// nil-safe) and returns the state gauge so a tracker can publish into
// it. The gauge holds the numeric State (0 healthy, 1 degraded,
// 2 failed).
func RegisterMetrics(r *obs.Registry) (*obs.Gauge, *obs.Counter) {
	g := r.Gauge(MetricState, "current health state: 0 healthy, 1 degraded, 2 failed")
	c := r.Counter(MetricTransitions, "total health state transitions")
	return g, c
}

// Tracker is an atomic health state machine. Construct with NewTracker;
// the zero value works but publishes no metrics. All methods are safe
// for concurrent use and nil-safe.
type Tracker struct {
	state atomic.Int32

	mu    sync.Mutex
	cause error
	since time.Time
	hooks []func(from, to State, cause error)

	gauge       *obs.Gauge
	transitions *obs.Counter
}

// NewTracker returns a Healthy tracker publishing into r's metrics
// (r may be nil for a metrics-less tracker).
func NewTracker(r *obs.Registry) *Tracker {
	t := &Tracker{since: time.Now()}
	t.gauge, t.transitions = RegisterMetrics(r)
	t.gauge.Set(float64(Healthy))
	return t
}

// State returns the current state (Healthy on nil).
func (t *Tracker) State() State {
	if t == nil {
		return Healthy
	}
	return State(t.state.Load())
}

// Info is a point-in-time copy of the tracker's state.
type Info struct {
	State State
	// Cause is the error behind the current state; nil when Healthy.
	Cause error
	// Since is when the current state was entered.
	Since time.Time
}

// Info returns the current state with its cause and entry time.
func (t *Tracker) Info() Info {
	if t == nil {
		return Info{State: Healthy}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return Info{State: State(t.state.Load()), Cause: t.cause, Since: t.since}
}

// OnTransition registers fn to run on every state change (not on
// same-state cause updates). Hooks run synchronously on the goroutine
// that called Set, outside the tracker's lock, in registration order.
func (t *Tracker) OnTransition(fn func(from, to State, cause error)) {
	if t == nil || fn == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hooks = append(t.hooks, fn)
}

// Set moves the tracker to state s with the given cause. The cause is
// recorded even when the state is unchanged (a degraded engine's retry
// failures refresh it); hooks, the transitions counter and Since only
// fire on an actual state change.
func (t *Tracker) Set(s State, cause error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	from := State(t.state.Load())
	t.cause = cause
	if s == Healthy {
		t.cause = nil
	}
	var hooks []func(from, to State, cause error)
	if from != s {
		t.state.Store(int32(s))
		t.since = time.Now()
		t.gauge.Set(float64(s))
		t.transitions.Inc()
		hooks = append(hooks, t.hooks...)
	}
	t.mu.Unlock()
	for _, fn := range hooks {
		fn(from, s, cause)
	}
}

// Handler returns an HTTP handler for /healthz. It answers 200 with a
// JSON body while the engine serves reads (Healthy or Degraded) and
// 503 once Failed, so load balancers keep a degraded replica in
// rotation for queries but evict a failed one.
func Handler(t *Tracker) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		info := t.Info()
		code := http.StatusOK
		if info.State == Failed {
			code = http.StatusServiceUnavailable
		}
		body := struct {
			State string `json:"state"`
			Cause string `json:"cause,omitempty"`
			Since string `json:"since,omitempty"`
		}{State: info.State.String()}
		if info.Cause != nil {
			body.Cause = info.Cause.Error()
		}
		if !info.Since.IsZero() {
			body.Since = info.Since.UTC().Format(time.RFC3339Nano)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(body)
	})
}
