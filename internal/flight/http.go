package flight

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// eventJSON is the wire shape of one event on /debug/flight.
type eventJSON struct {
	Seq   uint64 `json:"seq"`
	Trace uint64 `json:"trace,omitempty"`
	Kind  string `json:"kind"`
	At    string `json:"at"`
	AtNS  int64  `json:"at_ns"`
	A     int64  `json:"a"`
	B     int64  `json:"b"`
	Note  string `json:"note,omitempty"`
}

func toJSON(evs []Event) []eventJSON {
	out := make([]eventJSON, len(evs))
	for i, e := range evs {
		out[i] = eventJSON{
			Seq:   e.Seq,
			Trace: e.Trace,
			Kind:  e.Kind.String(),
			At:    e.Time().UTC().Format(time.RFC3339Nano),
			AtNS:  e.At,
			A:     e.A,
			B:     e.B,
			Note:  e.Note(),
		}
	}
	return out
}

// openApply is the wire shape of the apply in flight on /debug/flight.
type openApply struct {
	Trace uint64 `json:"trace"`
	AgeNS int64  `json:"age_ns"`
}

// Handler serves the flight ring as JSON, intended for mounting at
// /debug/flight. Query parameters:
//
//	?trace=ID    only events stamped with that trace ID
//	?kind=NAME   only events of that kind (see Kind.String)
//	?dump=last   serve the last captured dump instead of the live ring
//
// Filters compose; unknown kind names are a 400. While an apply is in
// flight the response carries "open_apply" with its trace and age in
// nanoseconds; the field is absent when the loop is idle. A nil
// *Recorder serves 404 so the route can be mounted unconditionally.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if r == nil {
			http.Error(w, "flight recorder disabled", http.StatusNotFound)
			return
		}
		q := req.URL.Query()

		var traceID uint64
		filterTrace := false
		if v := q.Get("trace"); v != "" {
			id, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				http.Error(w, "bad trace id: "+v, http.StatusBadRequest)
				return
			}
			traceID, filterTrace = id, true
		}
		var kind Kind
		filterKind := false
		if v := q.Get("kind"); v != "" {
			k, ok := ParseKind(v)
			if !ok {
				http.Error(w, "unknown kind: "+v, http.StatusBadRequest)
				return
			}
			kind, filterKind = k, true
		}

		resp := struct {
			Depth     int        `json:"depth"`
			Events    uint64     `json:"events_total"`
			Dropped   uint64     `json:"dropped_total"`
			Dumps     uint64     `json:"dumps_total"`
			OpenApply *openApply `json:"open_apply,omitempty"`
			Dump      *struct {
				Reason string    `json:"reason"`
				Focus  uint64    `json:"focus,omitempty"`
				At     time.Time `json:"at"`
			} `json:"dump,omitempty"`
			Items []eventJSON `json:"events"`
		}{
			Depth:   r.Depth(),
			Events:  r.Events(),
			Dropped: r.Dropped(),
			Dumps:   r.Dumps(),
		}
		if trace, age, ok := r.OpenApply(); ok {
			resp.OpenApply = &openApply{Trace: trace, AgeNS: int64(age)}
		}

		var evs []Event
		if q.Get("dump") == "last" {
			d := r.LastDump()
			if d == nil {
				http.Error(w, "no dump captured yet", http.StatusNotFound)
				return
			}
			evs = d.Events
			resp.Dump = &struct {
				Reason string    `json:"reason"`
				Focus  uint64    `json:"focus,omitempty"`
				At     time.Time `json:"at"`
			}{Reason: d.Reason, Focus: d.Focus, At: d.At}
		} else {
			evs = r.Snapshot()
		}

		if filterTrace || filterKind {
			kept := evs[:0:0]
			for _, e := range evs {
				if filterTrace && e.Trace != traceID {
					continue
				}
				if filterKind && e.Kind != kind {
					continue
				}
				kept = append(kept, e)
			}
			evs = kept
		}
		resp.Items = toJSON(evs)

		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(resp)
	})
}
