package graphbolt

import (
	"net/http"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/flight"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/qcache"
	"repro/internal/replica"
	"repro/internal/serve"
	"repro/internal/wal"
)

// MetricsRegistry re-exports the metrics registry: atomic counters,
// gauges and fixed-bucket histograms with Prometheus text exposition.
type MetricsRegistry = obs.Registry

// MetricsSnapshot is a point-in-time copy of every metric, JSON-ready.
type MetricsSnapshot = obs.Snapshot

// Tracer delivers engine phase spans ("run", "refine", "hybrid",
// "checkpoint", ...) to pluggable sinks; set it on Options.Tracer or
// DurableOptions.Tracer.
type Tracer = obs.Tracer

// TraceSink receives completed phase spans.
type TraceSink = obs.Sink

// NewTracer builds a tracer fanning out to the given sinks. A nil
// tracer (the Options default) is inert.
var NewTracer = obs.NewTracer

// NewMetricsRegistry builds an empty standalone registry, for callers
// that want instrumentation scoped to one engine or server instead of
// the process-wide registry EnableMetrics manages.
var NewMetricsRegistry = obs.NewRegistry

// EnableMetrics turns on process-wide instrumentation: every engine,
// journal and parallel loop constructed afterwards reports into the
// returned registry (engines built with an explicit Options.Metrics
// keep their own). All series are pre-registered so exposition shows
// them at zero. Idempotent.
func EnableMetrics() *MetricsRegistry {
	reg := obs.Default()
	core.SetDefaultMetrics(reg)
	core.RegisterMetrics(reg)
	wal.RegisterMetrics(reg)
	durable.RegisterMetrics(reg)
	serve.SetDefaultMetrics(reg)
	serve.RegisterMetrics(reg)
	qcache.RegisterMetrics(reg)
	health.RegisterMetrics(reg)
	flight.RegisterMetrics(reg)
	partition.RegisterMetrics(reg)
	replica.RegisterMetrics(reg)
	parallel.SetMetrics(reg)
	return reg
}

// DisableMetrics turns process-wide instrumentation back off. Engines
// constructed while it was on keep reporting into the registry they
// resolved at construction time.
func DisableMetrics() {
	core.SetDefaultMetrics(nil)
	serve.SetDefaultMetrics(nil)
	parallel.SetMetrics(nil)
}

// Metrics returns a point-in-time snapshot of the process-wide
// registry (every series at zero unless EnableMetrics was called and
// work has run).
func Metrics() MetricsSnapshot {
	return obs.Default().Snapshot()
}

// MetricsHandler returns the introspection HTTP handler for the
// process-wide registry: /metrics (Prometheus text), /metrics.json,
// /debug/vars (expvar) and /debug/pprof/*. Mount it on any server, or
// serve it directly:
//
//	graphbolt.EnableMetrics()
//	go http.ListenAndServe("localhost:9090", graphbolt.MetricsHandler())
func MetricsHandler() http.Handler {
	return obs.Handler(obs.Default())
}
