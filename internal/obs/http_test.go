package obs_test

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestHandlerEndpoints(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("test_requests_total", "Requests.").Add(3)
	r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1}).Observe(0.05)
	srv := httptest.NewServer(obs.Handler(r))
	defer srv.Close()

	get := func(path string) (status int, contentType, body string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(b)
	}

	status, ct, body := get("/metrics")
	if status != 200 {
		t.Fatalf("/metrics status %d", status)
	}
	if !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q, want Prometheus text v0.0.4", ct)
	}
	for _, want := range []string{
		"# TYPE test_requests_total counter",
		"test_requests_total 3",
		`test_latency_seconds_bucket{le="0.1"} 1`,
		`test_latency_seconds_bucket{le="+Inf"} 1`,
		"test_latency_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	status, _, body = get("/metrics.json")
	if status != 200 {
		t.Fatalf("/metrics.json status %d", status)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json not valid JSON: %v", err)
	}
	if snap.Counters["test_requests_total"] != 3 {
		t.Errorf("/metrics.json counter = %d, want 3", snap.Counters["test_requests_total"])
	}

	if status, _, _ = get("/debug/vars"); status != 200 {
		t.Errorf("/debug/vars status %d", status)
	}
	if status, _, _ = get("/debug/pprof/cmdline"); status != 200 {
		t.Errorf("/debug/pprof/cmdline status %d", status)
	}
	if status, _, _ = get("/nope"); status != 404 {
		t.Errorf("unknown path status %d, want 404", status)
	}
}

// TestHandlersAreRegistryScoped: two handlers over two registries each
// serve only their own registry, and the process-wide /debug/vars
// carries no registry at all (it would show one instance's numbers on
// every handler).
func TestHandlersAreRegistryScoped(t *testing.T) {
	regs := [2]*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	names := [2]string{"first_total", "second_total"}
	var srvs [2]*httptest.Server
	for i, r := range regs {
		r.Counter(names[i], "Own counter.").Add(int64(i + 1))
		srvs[i] = httptest.NewServer(obs.Handler(r))
		defer srvs[i].Close()
	}
	getJSON := func(srv *httptest.Server, path string, into any) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	for i, srv := range srvs {
		var snap obs.Snapshot
		getJSON(srv, "/metrics.json", &snap)
		if len(snap.Counters) != 1 || snap.Counters[names[i]] != int64(i+1) {
			t.Errorf("handler %d /metrics.json counters = %v, want only %s=%d", i, snap.Counters, names[i], i+1)
		}
		var vars map[string]json.RawMessage
		getJSON(srv, "/debug/vars", &vars)
		if _, ok := vars["graphbolt"]; ok {
			t.Errorf("handler %d /debug/vars publishes a graphbolt key", i)
		}
		if _, ok := vars["memstats"]; !ok {
			t.Errorf("handler %d /debug/vars lost memstats", i)
		}
	}
}
