package replica

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/qcache"
)

// newTestEngine builds a small PageRank engine over a chain graph with
// history retention. The engine has not run yet.
func newTestEngine(t testing.TB, n int) *core.Engine[float64, float64] {
	t.Helper()
	edges := make([]graph.Edge, 0, n)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{From: graph.VertexID(i), To: graph.VertexID(i + 1), Weight: 1})
	}
	g, err := graph.Build(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine[float64, float64](g, algorithms.NewPageRank(), core.Options{
		MaxIterations: 10,
		Retain:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// engineSource adapts a bare engine as a Source for API tests.
type engineSource struct {
	eng *core.Engine[float64, float64]
}

func (s engineSource) Snapshot() *core.ResultSnapshot[float64] { return s.eng.Snapshot() }
func (s engineSource) SnapshotAt(gen uint64) (*core.ResultSnapshot[float64], error) {
	return s.eng.SnapshotAt(gen)
}
func (s engineSource) RetainedGenerations() (oldest, newest uint64) {
	return s.eng.RetainedGenerations()
}
func (s engineSource) Cache() *qcache.Cache { return nil }

// apiServer publishes 4 generations with Retain 2 (window [3,4]) and
// serves the query API over them.
func apiServer(t *testing.T) *httptest.Server {
	t.Helper()
	eng := newTestEngine(t, 6)
	eng.Run()
	for i := 0; i < 3; i++ {
		b := graph.Batch{Add: []graph.Edge{{From: 0, To: graph.VertexID(i + 2), Weight: 1}}}
		if _, err := eng.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(API[float64](engineSource{eng}))
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) (int, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	dec := json.NewDecoder(resp.Body)
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := dec.Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
		return resp.StatusCode, ""
	}
	var e struct {
		Error  string `json:"error"`
		Detail string `json:"detail"`
	}
	if err := dec.Decode(&e); err == nil {
		buf.WriteString(e.Error)
		if e.Detail != "" {
			buf.WriteString(": " + e.Detail)
		}
	}
	return resp.StatusCode, buf.String()
}

// TestAPISnapshotEndpoints: current and per-generation metadata carry
// the generation, sizes and retention window.
func TestAPISnapshotEndpoints(t *testing.T) {
	ts := apiServer(t)
	var meta SnapshotMeta
	if code, _ := getJSON(t, ts, "/v1/snapshot", &meta); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if meta.Generation != 4 || meta.Vertices != 6 || meta.RetainedOldest != 3 || meta.RetainedNewest != 4 {
		t.Fatalf("meta = %+v", meta)
	}
	var at SnapshotMeta
	if code, _ := getJSON(t, ts, "/v1/snapshot/3", &at); code != http.StatusOK || at.Generation != 3 {
		t.Fatalf("snapshot/3: code %d meta %+v", code, at)
	}
}

// TestAPIEvictedGenerationIs410: a generation outside the retention
// window returns 410 Gone with the ErrGenerationNotRetained detail —
// the contract pinned by the ISSUE: clients must be told the snapshot
// is permanently gone, not that they erred.
func TestAPIEvictedGenerationIs410(t *testing.T) {
	ts := apiServer(t)
	for _, path := range []string{"/v1/snapshot/1", "/v1/topk?gen=1", "/v1/value/0?gen=1"} {
		code, body := getJSON(t, ts, path, nil)
		if code != http.StatusGone {
			t.Errorf("%s: status %d, want 410", path, code)
		}
		if !strings.Contains(body, core.ErrGenerationNotRetained.Error()) {
			t.Errorf("%s: body %q lacks ErrGenerationNotRetained detail", path, body)
		}
	}
}

// TestAPIMalformedRequestsAre400: malformed parameters are client
// errors, never 500s.
func TestAPIMalformedRequestsAre400(t *testing.T) {
	ts := apiServer(t)
	for _, path := range []string{
		"/v1/snapshot/notanumber",
		"/v1/snapshot/-1",
		"/v1/topk?k=notanumber",
		"/v1/topk?k=0",
		"/v1/topk?k=-3",
		"/v1/topk?gen=xyz",
		"/v1/value/notanumber",
		"/v1/value/0?gen=xyz",
	} {
		if code, _ := getJSON(t, ts, path, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, code)
		}
	}
}

// TestAPITopKAndValue: top-k is ordered and value lookups round-trip;
// an out-of-range vertex is 404.
func TestAPITopKAndValue(t *testing.T) {
	ts := apiServer(t)
	var topk TopKResponse[float64]
	if code, _ := getJSON(t, ts, "/v1/topk?k=3", &topk); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if topk.K != 3 || len(topk.Top) != 3 {
		t.Fatalf("topk = %+v", topk)
	}
	for i := 1; i < len(topk.Top); i++ {
		if topk.Top[i].Value.V > topk.Top[i-1].Value.V {
			t.Fatalf("topk not descending: %+v", topk.Top)
		}
	}
	var val ValueResponse[float64]
	if code, _ := getJSON(t, ts, "/v1/value/"+strconv.FormatUint(uint64(topk.Top[0].Vertex), 10), &val); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if val.Value != topk.Top[0].Value {
		t.Fatalf("value %v != topk head %v", val.Value.V, topk.Top[0].Value.V)
	}
	if code, _ := getJSON(t, ts, "/v1/value/99999", nil); code != http.StatusNotFound {
		t.Fatalf("out-of-range vertex: status %d, want 404", code)
	}
}

// TestAPINonFiniteValues: JSON has no literal for the +Inf an SSSP
// snapshot holds on every unreachable vertex. Such reads must still
// answer 200 with a non-empty, parseable body — the value travels as the
// string "+Inf" and decodes back — never a 200 with nothing after the
// header.
func TestAPINonFiniteValues(t *testing.T) {
	// 0→1→2 reachable from source 0; 3, 4, 5 are not.
	g, err := graph.Build(6, []graph.Edge{{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 1}, {From: 4, To: 5, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine[float64, float64](g, algorithms.NewSSSP(0), core.Options{Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// Generation 2 reaches vertex 3: its distance changes from +Inf.
	if _, err := eng.ApplyBatch(graph.Batch{Add: []graph.Edge{{From: 2, To: 3, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(API[float64](engineSource{eng}))
	defer ts.Close()

	inf := math.Inf(1)
	var (
		val  ValueResponse[float64]
		topk TopKResponse[float64]
	)
	for _, c := range []struct {
		path  string
		out   any
		check func() bool
	}{
		{"/v1/value/5", &val, func() bool { return val.Value.V == inf }},
		{"/v1/value/2", &val, func() bool { return val.Value.V == 2 }},
		{"/v1/topk?k=3", &topk, func() bool {
			return len(topk.Top) == 3 && topk.Top[0].Value.V == inf && topk.Top[1].Value.V == inf && topk.Top[2].Value.V == 3
		}},
		{"/v1/value/3?gen=1", &val, func() bool { return val.Value.V == inf }},
		{"/v1/value/3", &val, func() bool { return val.Value.V == 3 }},
	} {
		resp, err := ts.Client().Get(ts.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Errorf("%s: status %d with a %d-byte body, want 200 and a body", c.path, resp.StatusCode, len(body))
			continue
		}
		if err := json.Unmarshal(body, c.out); err != nil {
			t.Errorf("%s: body %q does not parse: %v", c.path, body, err)
			continue
		}
		if !c.check() {
			t.Errorf("%s: body %q decoded to the wrong values", c.path, body)
		}
	}
}

// TestAPIEncodeFailureIs500: a value the encoder rejects becomes a
// typed JSON 500, decided before the header goes out.
func TestAPIEncodeFailureIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, math.Inf(1)) // a bare float, outside jsonValue
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusInternalServerError || err != nil || e.Error == "" {
		t.Fatalf("status %d body %q (decode: %v), want a JSON 500", rec.Code, rec.Body, err)
	}
}

// TestAPIMethodNotAllowed: writes to read endpoints are 405, and the
// API carries no write route at all.
func TestAPIMethodNotAllowed(t *testing.T) {
	ts := apiServer(t)
	resp, err := ts.Client().Post(ts.URL+"/v1/snapshot", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/snapshot: status %d, want 405", resp.StatusCode)
	}
}

// TestAPINothingPublished: before the first Run, reads are 503 (come
// back soon), not 500.
func TestAPINothingPublished(t *testing.T) {
	eng := newTestEngine(t, 4)
	ts := httptest.NewServer(API[float64](engineSource{eng}))
	defer ts.Close()
	for _, path := range []string{"/v1/snapshot", "/v1/topk", "/v1/value/0"} {
		if code, _ := getJSON(t, ts, path, nil); code != http.StatusServiceUnavailable {
			t.Errorf("%s: status %d, want 503", path, code)
		}
	}
}
