package replica

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/qcache"
)

// Source is the read surface the query API serves — satisfied by both
// the root package's Server (the leader) and a Follower, which is the
// point: one API handler, mounted on either side of the replication
// stream, so readers cannot tell (and need not care) which process
// answers them.
type Source[V any] interface {
	Snapshot() *core.ResultSnapshot[V]
	SnapshotAt(gen uint64) (*core.ResultSnapshot[V], error)
	RetainedGenerations() (oldest, newest uint64)
	Cache() *qcache.Cache
}

// SnapshotMeta is the JSON shape of /v1/snapshot and /v1/snapshot/{gen}.
type SnapshotMeta struct {
	Generation     uint64    `json:"generation"`
	Vertices       int       `json:"vertices"`
	Edges          int64     `json:"edges"`
	Level          uint64    `json:"level"`
	PublishedAt    time.Time `json:"published_at"`
	RetainedOldest uint64    `json:"retained_oldest"`
	RetainedNewest uint64    `json:"retained_newest"`
}

// TopKResponse is the JSON shape of /v1/topk.
type TopKResponse[V any] struct {
	Generation uint64        `json:"generation"`
	K          int           `json:"k"`
	Top        []TopEntry[V] `json:"top"`
}

// TopEntry is one /v1/topk element.
type TopEntry[V any] struct {
	Vertex graph.VertexID `json:"vertex"`
	Value  jsonValue[V]   `json:"value"`
}

// ValueResponse is the JSON shape of /v1/value/{vertex}.
type ValueResponse[V any] struct {
	Generation uint64         `json:"generation"`
	Vertex     graph.VertexID `json:"vertex"`
	Value      jsonValue[V]   `json:"value"`
}

// jsonValue carries a vertex value through JSON. Finite values encode
// as themselves; the float values JSON has no literal for — the +Inf an
// SSSP snapshot holds for every unreachable vertex, -Inf, NaN — encode
// as the strings "+Inf", "-Inf" and "NaN", and decode back.
type jsonValue[V any] struct{ V V }

func (j jsonValue[V]) MarshalJSON() ([]byte, error) {
	if rv := reflect.ValueOf(j.V); rv.CanFloat() {
		if f := rv.Float(); math.IsInf(f, 0) || math.IsNaN(f) {
			return strconv.AppendQuote(nil, strconv.FormatFloat(f, 'g', -1, 64)), nil
		}
	}
	return json.Marshal(j.V)
}

func (j *jsonValue[V]) UnmarshalJSON(b []byte) error {
	if rv := reflect.ValueOf(&j.V).Elem(); rv.CanFloat() && len(b) > 0 && b[0] == '"' {
		f, err := strconv.ParseFloat(string(bytes.Trim(b, `"`)), 64)
		if err != nil {
			return err
		}
		rv.SetFloat(f)
		return nil
	}
	return json.Unmarshal(b, &j.V)
}

// API returns the HTTP/JSON query surface over src:
//
//	GET /v1/snapshot            newest snapshot metadata
//	GET /v1/snapshot/{gen}      metadata for a retained generation
//	GET /v1/topk?k=N[&gen=G]    top-N vertices by value (qcache-memoized)
//	GET /v1/value/{vertex}[?gen=G]  one vertex's value
//
// Errors are JSON ({"error", "detail"}): 400 for malformed parameters,
// 404 for a vertex outside the snapshot, 410 (Gone) for a generation
// outside the retention window — the condition is permanent, the
// snapshot is never coming back — and 503 before anything is published.
// Non-GET methods get 405 from the mux.
func API[V cmp.Ordered](src Source[V]) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		s := src.Snapshot()
		if s == nil {
			httpError(w, http.StatusServiceUnavailable, "nothing published yet", "")
			return
		}
		writeSnapshotMeta(w, src, s)
	})
	mux.HandleFunc("GET /v1/snapshot/{gen}", func(w http.ResponseWriter, r *http.Request) {
		gen, err := strconv.ParseUint(r.PathValue("gen"), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "malformed generation", err.Error())
			return
		}
		s, err := src.SnapshotAt(gen)
		if err != nil {
			snapshotError(w, err)
			return
		}
		writeSnapshotMeta(w, src, s)
	})
	mux.HandleFunc("GET /v1/topk", func(w http.ResponseWriter, r *http.Request) {
		k := 10
		if s := r.URL.Query().Get("k"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v <= 0 {
				httpError(w, http.StatusBadRequest, "malformed k parameter", "k must be a positive integer")
				return
			}
			k = v
		}
		s, ok := resolveSnapshot(w, src, r.URL.Query().Get("gen"))
		if !ok {
			return
		}
		top := qcache.TopK(src.Cache(), s, k)
		resp := TopKResponse[V]{Generation: s.Generation, K: k, Top: make([]TopEntry[V], len(top))}
		for i, t := range top {
			resp.Top[i] = TopEntry[V]{Vertex: t.Vertex, Value: jsonValue[V]{t.Value}}
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("GET /v1/value/{vertex}", func(w http.ResponseWriter, r *http.Request) {
		v, err := strconv.ParseUint(r.PathValue("vertex"), 10, 64)
		if err != nil || graph.VertexID(v) > graph.MaxVertexID {
			httpError(w, http.StatusBadRequest, "malformed vertex id", "vertex must be a non-negative integer")
			return
		}
		s, ok := resolveSnapshot(w, src, r.URL.Query().Get("gen"))
		if !ok {
			return
		}
		if v >= uint64(len(s.Values)) {
			httpError(w, http.StatusNotFound, "vertex not in snapshot",
				"vertex "+strconv.FormatUint(v, 10)+" is outside generation "+strconv.FormatUint(s.Generation, 10))
			return
		}
		writeJSON(w, ValueResponse[V]{Generation: s.Generation, Vertex: graph.VertexID(v), Value: jsonValue[V]{s.Values[v]}})
	})
	return mux
}

// resolveSnapshot picks the snapshot a query runs against: the newest
// when genParam is empty, SnapshotAt otherwise. On failure it writes
// the error response and reports !ok.
func resolveSnapshot[V any](w http.ResponseWriter, src Source[V], genParam string) (*core.ResultSnapshot[V], bool) {
	if genParam == "" {
		s := src.Snapshot()
		if s == nil {
			httpError(w, http.StatusServiceUnavailable, "nothing published yet", "")
			return nil, false
		}
		return s, true
	}
	gen, err := strconv.ParseUint(genParam, 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "malformed gen parameter", err.Error())
		return nil, false
	}
	s, err := src.SnapshotAt(gen)
	if err != nil {
		snapshotError(w, err)
		return nil, false
	}
	return s, true
}

// snapshotError maps SnapshotAt failures onto status codes: a
// generation outside the retention window is 410 Gone — evicted
// snapshots never return, so clients should stop asking — with the
// engine's ErrGenerationNotRetained detail preserved in the body.
func snapshotError(w http.ResponseWriter, err error) {
	if errors.Is(err, core.ErrGenerationNotRetained) {
		httpError(w, http.StatusGone, core.ErrGenerationNotRetained.Error(), err.Error())
		return
	}
	httpError(w, http.StatusInternalServerError, "snapshot lookup failed", err.Error())
}

func writeSnapshotMeta[V any](w http.ResponseWriter, src Source[V], s *core.ResultSnapshot[V]) {
	oldest, newest := src.RetainedGenerations()
	writeJSON(w, SnapshotMeta{
		Generation:     s.Generation,
		Vertices:       s.Graph.NumVertices(),
		Edges:          s.Graph.NumEdges(),
		Level:          uint64(s.Level),
		PublishedAt:    s.PublishedAt,
		RetainedOldest: oldest,
		RetainedNewest: newest,
	})
}

// writeJSON encodes v into a buffer before touching w, so an encoding
// failure becomes a typed 500 instead of a 200 with an empty body.
func writeJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		httpError(w, http.StatusInternalServerError, "response encoding failed", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}
