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

// NewMetricsRegistry builds an empty registry. Instrumentation is
// instance-scoped: an engine, server, journal or flight recorder reports
// into the registry its options name, and nowhere when they name none.
var NewMetricsRegistry = obs.NewRegistry

// RegisterMetrics pre-registers every graphbolt_* series in reg, so
// exposition shows each one at zero before the first instance is built,
// and points the internal parallel loops' worker metrics at reg.
// Registration is idempotent. The parallel loops' sink is the one
// process-wide sink left (the loops are shared by every engine in the
// process): a later call with another registry, or with nil, moves or
// turns off those series for all engines. Everything else reports only
// where each instance's Metrics option points.
func RegisterMetrics(reg *MetricsRegistry) {
	core.RegisterMetrics(reg)
	wal.RegisterMetrics(reg)
	durable.RegisterMetrics(reg)
	serve.RegisterMetrics(reg)
	qcache.RegisterMetrics(reg)
	health.RegisterMetrics(reg)
	flight.RegisterMetrics(reg)
	partition.RegisterMetrics(reg)
	replica.RegisterMetrics(reg)
	parallel.SetMetrics(reg)
}

// MetricsHandler returns the introspection HTTP handler for reg:
// /metrics (Prometheus text), /metrics.json, /debug/vars (expvar's
// cmdline and memstats) and /debug/pprof/*. Mount it on any server, or
// serve it directly:
//
//	reg := graphbolt.NewMetricsRegistry()
//	graphbolt.RegisterMetrics(reg)
//	go http.ListenAndServe("localhost:9090", graphbolt.MetricsHandler(reg))
func MetricsHandler(reg *MetricsRegistry) http.Handler {
	return obs.Handler(reg)
}
