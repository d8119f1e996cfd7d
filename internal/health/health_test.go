package health

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestStateString(t *testing.T) {
	cases := map[State]string{Healthy: "healthy", Degraded: "degraded", Failed: "failed", State(42): "unknown"}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Fatalf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}

func TestTrackerTransitions(t *testing.T) {
	r := obs.NewRegistry()
	tr := NewTracker(r)
	if tr.State() != Healthy {
		t.Fatalf("new tracker state = %v, want Healthy", tr.State())
	}

	type hop struct{ from, to State }
	var mu sync.Mutex
	var hops []hop
	tr.OnTransition(func(from, to State, cause error) {
		mu.Lock()
		hops = append(hops, hop{from, to})
		mu.Unlock()
	})

	cause := errors.New("fsync refused")
	tr.Set(Degraded, cause)
	info := tr.Info()
	if info.State != Degraded || !errors.Is(info.Cause, cause) || info.Since.IsZero() {
		t.Fatalf("after degrade: %+v", info)
	}

	// Same-state Set refreshes the cause without counting a transition.
	cause2 := errors.New("still refusing")
	tr.Set(Degraded, cause2)
	if got := tr.Info().Cause; !errors.Is(got, cause2) {
		t.Fatalf("cause not refreshed: %v", got)
	}

	tr.Set(Healthy, nil)
	if info := tr.Info(); info.State != Healthy || info.Cause != nil {
		t.Fatalf("after heal: %+v", info)
	}

	tr.Set(Failed, errors.New("panic in apply"))
	if tr.State() != Failed {
		t.Fatalf("state = %v, want Failed", tr.State())
	}

	mu.Lock()
	defer mu.Unlock()
	want := []hop{{Healthy, Degraded}, {Degraded, Healthy}, {Healthy, Failed}}
	if len(hops) != len(want) {
		t.Fatalf("hooks fired %d times (%v), want %d", len(hops), hops, len(want))
	}
	for i := range want {
		if hops[i] != want[i] {
			t.Fatalf("hop %d = %v, want %v", i, hops[i], want[i])
		}
	}

	snap := r.Snapshot()
	if g := snap.Gauges[MetricState]; g != float64(Failed) {
		t.Fatalf("%s = %v, want %v", MetricState, g, float64(Failed))
	}
	if c := snap.Counters[MetricTransitions]; c != 3 {
		t.Fatalf("%s = %d, want 3", MetricTransitions, c)
	}
}

func TestNilTrackerIsInert(t *testing.T) {
	var tr *Tracker
	tr.Set(Failed, errors.New("x"))
	tr.OnTransition(func(State, State, error) {})
	if tr.State() != Healthy {
		t.Fatalf("nil tracker state = %v, want Healthy", tr.State())
	}
	if info := tr.Info(); info.State != Healthy || info.Cause != nil {
		t.Fatalf("nil tracker Info = %+v", info)
	}
}

func TestHandlerStatusCodes(t *testing.T) {
	tr := NewTracker(nil)
	h := Handler(tr)

	get := func() (int, map[string]string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("bad JSON %q: %v", rec.Body.String(), err)
		}
		return rec.Code, body
	}

	if code, body := get(); code != 200 || body["state"] != "healthy" {
		t.Fatalf("healthy: code=%d body=%v", code, body)
	}
	tr.Set(Degraded, errors.New("journal damaged"))
	if code, body := get(); code != 200 || body["state"] != "degraded" || body["cause"] == "" {
		t.Fatalf("degraded: code=%d body=%v", code, body)
	}
	tr.Set(Failed, errors.New("apply panicked"))
	if code, body := get(); code != 503 || body["state"] != "failed" {
		t.Fatalf("failed: code=%d body=%v", code, body)
	}
}

func TestHandlerNilTracker(t *testing.T) {
	rec := httptest.NewRecorder()
	Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("nil tracker /healthz = %d, want 200", rec.Code)
	}
}
