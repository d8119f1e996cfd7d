package flight

import (
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"testing"
	"time"
)

type flightResponse struct {
	Depth   int    `json:"depth"`
	Events  uint64 `json:"events_total"`
	Dropped uint64 `json:"dropped_total"`
	Dumps   uint64 `json:"dumps_total"`
	Dump    *struct {
		Reason string    `json:"reason"`
		Focus  uint64    `json:"focus"`
		At     time.Time `json:"at"`
	} `json:"dump"`
	Items []struct {
		Seq   uint64 `json:"seq"`
		Trace uint64 `json:"trace"`
		Kind  string `json:"kind"`
		At    string `json:"at"`
		AtNS  int64  `json:"at_ns"`
		A     int64  `json:"a"`
		B     int64  `json:"b"`
		Note  string `json:"note"`
	} `json:"events"`
}

func serveFlight(t *testing.T, r *Recorder, target string) (int, flightResponse) {
	t.Helper()
	req := httptest.NewRequest("GET", target, nil)
	rw := httptest.NewRecorder()
	r.Handler().ServeHTTP(rw, req)
	var resp flightResponse
	if rw.Code == 200 {
		if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", target, err, rw.Body.String())
		}
	}
	return rw.Code, resp
}

func TestHandlerNilRecorder(t *testing.T) {
	var r *Recorder
	if code, _ := serveFlight(t, r, "/debug/flight"); code != 404 {
		t.Fatalf("nil recorder served %d, want 404", code)
	}
}

func TestHandlerLiveRing(t *testing.T) {
	r := New(Options{Depth: 16, Logger: slog.New(slog.DiscardHandler)})
	r.Record(KindAdmitted, 1, 100, 0)
	r.Record(KindEnqueued, 1, 1, 0)
	r.Record(KindAdmitted, 2, 200, 0)

	code, resp := serveFlight(t, r, "/debug/flight")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Depth != 16 || resp.Events != 3 || resp.Dropped != 0 {
		t.Fatalf("header fields: %+v", resp)
	}
	if len(resp.Items) != 3 {
		t.Fatalf("%d events, want 3", len(resp.Items))
	}
	e := resp.Items[0]
	if e.Kind != "admitted" || e.Trace != 1 || e.A != 100 || e.Note != "weight=100" {
		t.Fatalf("event 0: %+v", e)
	}
	if _, err := time.Parse(time.RFC3339Nano, e.At); err != nil {
		t.Fatalf("event timestamp %q not RFC3339Nano: %v", e.At, err)
	}
}

func TestHandlerFilters(t *testing.T) {
	r := New(Options{Depth: 16, Logger: slog.New(slog.DiscardHandler)})
	r.Record(KindAdmitted, 1, 0, 0)
	r.Record(KindEnqueued, 1, 1, 0)
	r.Record(KindAdmitted, 2, 0, 0)
	r.Record(KindEnqueued, 2, 2, 0)

	_, resp := serveFlight(t, r, "/debug/flight?trace=2")
	if len(resp.Items) != 2 {
		t.Fatalf("trace filter kept %d events, want 2", len(resp.Items))
	}
	for _, e := range resp.Items {
		if e.Trace != 2 {
			t.Fatalf("trace filter leaked trace %d", e.Trace)
		}
	}

	_, resp = serveFlight(t, r, "/debug/flight?kind=enqueued")
	if len(resp.Items) != 2 {
		t.Fatalf("kind filter kept %d events, want 2", len(resp.Items))
	}

	// Filters compose.
	_, resp = serveFlight(t, r, "/debug/flight?trace=1&kind=enqueued")
	if len(resp.Items) != 1 || resp.Items[0].Trace != 1 || resp.Items[0].Kind != "enqueued" {
		t.Fatalf("composed filter: %+v", resp.Items)
	}

	if code, _ := serveFlight(t, r, "/debug/flight?trace=zzz"); code != 400 {
		t.Fatalf("bad trace id served %d, want 400", code)
	}
	if code, _ := serveFlight(t, r, "/debug/flight?kind=nope"); code != 400 {
		t.Fatalf("unknown kind served %d, want 400", code)
	}
}

func TestHandlerDumpLast(t *testing.T) {
	r := New(Options{Depth: 16, Logger: slog.New(slog.DiscardHandler)})
	if code, _ := serveFlight(t, r, "/debug/flight?dump=last"); code != 404 {
		t.Fatalf("no-dump served %d, want 404", code)
	}

	r.Record(KindApplied, 7, 1, 2)
	r.Dump("unit test", 7)
	r.Record(KindAdmitted, 8, 0, 0) // after the dump: must not appear

	code, resp := serveFlight(t, r, "/debug/flight?dump=last")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Dump == nil || resp.Dump.Reason != "unit test" || resp.Dump.Focus != 7 {
		t.Fatalf("dump header: %+v", resp.Dump)
	}
	if len(resp.Items) != 1 || resp.Items[0].Kind != "applied" {
		t.Fatalf("dump events: %+v", resp.Items)
	}

	// Filters apply to the dump view too.
	_, resp = serveFlight(t, r, "/debug/flight?dump=last&trace=999")
	if len(resp.Items) != 0 {
		t.Fatalf("filtered dump kept %d events, want 0", len(resp.Items))
	}
}
