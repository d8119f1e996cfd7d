package obs

import (
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/pprof"
)

// Handler returns the live introspection endpoint for a registry:
//
//	/metrics        Prometheus text exposition (version 0.0.4)
//	/metrics.json   the same snapshot as JSON (what Registry.Snapshot returns)
//	/debug/vars     expvar (cmdline and memstats; the registry is not
//	                published there, since expvar is process-wide)
//	/debug/pprof/*  the standard pprof profiles
//
// Serve it with net/http:
//
//	go http.ListenAndServe(addr, obs.Handler(reg))
func Handler(r *Registry) http.Handler {
	return HandlerWith(r, nil)
}

// HandlerWith is Handler plus extra routes: each pattern in extra is
// mounted on the same mux (e.g. "/healthz" → the health endpoint).
// Extra routes must not collide with the built-in ones.
func HandlerWith(r *Registry, extra map[string]http.Handler) http.Handler {
	mux := http.NewServeMux()
	for pattern, h := range extra {
		mux.Handle(pattern, h)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(r.Snapshot())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
