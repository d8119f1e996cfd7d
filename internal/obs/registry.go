// Package obs is the engine's metrics layer: an allocation-light
// registry (atomic counters, gauges and fixed-bucket histograms with
// Prometheus text exposition and JSON snapshots) and the HTTP handler
// that serves one. It depends only on the standard library. Phase
// timings are not recorded here: they go to the flight recorder's ring
// (internal/flight).
//
// There is no process-wide registry. Each engine, server or recorder
// reports into the *Registry it was handed, so two instances in one
// process never mix their numbers.
//
// Everything is nil-safe by construction: methods on a nil *Registry
// return nil metric handles, and methods on nil handles are no-ops.
// Instrumented code therefore holds unconditional handles and pays a
// single predictable nil check when observability is off — no
// interfaces, no allocation, no locks on the hot path.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics. Registration is idempotent: asking for
// an existing name returns the existing metric (the kind must match).
// The zero value is not usable; construct with NewRegistry. A nil
// *Registry is valid and inert.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	help       map[string]string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		help:       make(map[string]string),
	}
}

// validMetricName reports whether name matches the Prometheus metric
// name grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r == '_' || r == ':':
		case r >= 'a' && r <= 'z':
		case r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// checkName panics on an invalid metric name or a name already
// registered as a different kind. Registration happens at wiring time,
// so both are programmer errors worth failing loudly on.
func (r *Registry) checkName(name, kind string) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	exists := func(k string, ok bool) {
		if ok && k != kind {
			panic(fmt.Sprintf("obs: metric %q already registered as a %s, requested %s", name, k, kind))
		}
	}
	_, ok := r.counters[name]
	exists("counter", ok)
	_, ok = r.gauges[name]
	exists("gauge", ok)
	_, ok = r.histograms[name]
	exists("histogram", ok)
}

// Counter returns the monotonically increasing counter registered under
// name, creating it if needed. Returns nil on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "counter")
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.help[name] = help
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
// Returns nil on a nil registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "gauge")
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
		r.help[name] = help
	}
	return g
}

// Histogram returns the fixed-bucket histogram registered under name,
// creating it with the given strictly increasing upper bounds (an
// implicit +Inf bucket is always appended). Asking for an existing
// histogram returns it unchanged, ignoring bounds. Returns nil on a nil
// registry.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "histogram")
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(name, bounds)
		r.histograms[name] = h
		r.help[name] = help
	}
	return h
}

// Counter is a monotonically increasing int64. A nil *Counter is valid
// and inert.
type Counter struct{ v atomic.Int64 }

// Add increases the counter; negative deltas are ignored (counters are
// monotonic).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down. A nil *Gauge is valid and
// inert.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by d (CAS loop; safe under concurrency).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefTimeBuckets are the default upper bounds (seconds) for latency
// histograms, spanning microsecond fsyncs to multi-second checkpoints.
var DefTimeBuckets = []float64{
	1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram: observations are counted into
// the first bucket whose upper bound is ≥ the value (Prometheus "le"
// semantics), with an implicit +Inf overflow bucket. All operations are
// lock-free; a nil *Histogram is valid and inert.
type Histogram struct {
	name   string
	bounds []float64       // strictly increasing upper bounds, +Inf excluded
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
}

func newHistogram(name string, bounds []float64) *Histogram {
	cp := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		if math.IsInf(b, +1) {
			continue // the +Inf bucket is implicit
		}
		cp = append(cp, b)
	}
	for i := 1; i < len(cp); i++ {
		if cp[i] <= cp[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing: %v", name, bounds))
		}
	}
	return &Histogram{name: name, bounds: cp, counts: make([]atomic.Uint64, len(cp)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound ≥ v; past the end means the +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshot copies the histogram's state (non-cumulative bucket counts).
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Snapshot is a point-in-time copy of a registry's metrics, JSON- and
// expvar-friendly.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot is one histogram's state. Counts are per-bucket
// (not cumulative); Counts[len(Bounds)] is the +Inf overflow bucket.
type HistogramSnapshot struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
}

// Snapshot copies every metric's current value. Safe to call
// concurrently with updates; a nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Counters = make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	s.Gauges = make(map[string]float64, len(r.gauges))
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4), metrics sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	// Snapshot handles under the lock; format outside it.
	type entry struct {
		name, help string
		c          *Counter
		g          *Gauge
		h          *Histogram
	}
	entries := make([]entry, 0, len(names))
	for _, n := range names {
		e := entry{name: n, help: r.help[n]}
		e.c = r.counters[n]
		e.g = r.gauges[n]
		e.h = r.histograms[n]
		entries = append(entries, e)
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, e := range entries {
		if e.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", e.name, escapeHelp(e.help))
		}
		switch {
		case e.c != nil:
			fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", e.name, e.name, e.c.Value())
		case e.g != nil:
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", e.name, e.name, formatFloat(e.g.Value()))
		case e.h != nil:
			fmt.Fprintf(&b, "# TYPE %s histogram\n", e.name)
			s := e.h.snapshot()
			var cum uint64
			for i, bound := range s.Bounds {
				cum += s.Counts[i]
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", e.name, formatFloat(bound), cum)
			}
			cum += s.Counts[len(s.Bounds)]
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", e.name, cum)
			fmt.Fprintf(&b, "%s_sum %s\n", e.name, formatFloat(s.Sum))
			fmt.Fprintf(&b, "%s_count %d\n", e.name, s.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0")
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
