package graphbolt_test

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	graphbolt "repro"
	"repro/internal/faultio"
	"repro/internal/flight"
	"repro/internal/gen"
	"repro/internal/stream"
	"repro/internal/wal"
)

// TestFlightRecorderE2E drives a durable server through the full batch
// lifecycle — submit, coalesce, journal (with fsync), apply, publish —
// plus one scripted fsync-failure episode, and asserts the flight
// recorder's acceptance contract:
//
//   - every ticket of a coalesced apply resolves with the same
//     Applied.Trace, a complete per-phase timeline whose phase
//     durations sum within tolerance of the observed end-to-end latency;
//   - the Degraded transition forces a flight dump focused on (and
//     containing) the failing batch's trace;
//   - /debug/flight serves the same events, filterable by trace ID;
//   - the recorder, passed as Options.Flight and DurableOptions.Flight,
//     is the one place engine and durable phases are timed: recovery
//     under trace 0, apply_batch and refine under the applied batch's.
func TestFlightRecorderE2E(t *testing.T) {
	const nVerts = 64
	edges := gen.RMAT(11, nVerts, 1500, gen.WeightUniform)
	strm, err := stream.FromEdges(nVerts, edges, stream.Config{
		BatchSize:  8,
		NumBatches: 8,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := graphbolt.NewFlightRecorder(graphbolt.FlightOptions{
		Depth:  1 << 12,
		Logger: slog.New(slog.DiscardHandler),
	})
	eng, err := graphbolt.NewEngine[float64, float64](strm.Base, graphbolt.NewPageRank(),
		graphbolt.Options{MaxIterations: 4, Flight: rec})
	if err != nil {
		t.Fatal(err)
	}

	// The gate, when armed, blocks the next WAL fsync so batches pile up
	// behind an in-flight apply and coalesce deterministically.
	fsync := faultio.NewFsync()
	var gateArmed atomic.Bool
	gateEntered := make(chan struct{}, 1)
	gate := make(chan struct{})
	d, err := graphbolt.OpenDurable(eng, t.TempDir(), graphbolt.DurableOptions{
		Flight: rec,
		WAL: graphbolt.WALOptions{
			Sync: graphbolt.SyncEveryBatch,
			Hooks: wal.Hooks{
				BeforeSync: func() error {
					if gateArmed.CompareAndSwap(true, false) {
						select {
						case gateEntered <- struct{}{}:
						default:
						}
						<-gate
					}
					return fsync.Check()
				},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := graphbolt.NewDurableServer(d, graphbolt.ServerOptions{
		Flight:  rec,
		Backoff: graphbolt.BackoffPolicy{Base: 500 * time.Microsecond, Max: 5 * time.Millisecond},
		Logger:  slog.New(slog.DiscardHandler),
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Phase 1 — coalescing: the head batch blocks inside its journal
	// fsync while four more queue behind it, then everything drains.
	gateArmed.Store(true)
	tk0, err := srv.Submit(ctx, strm.Batches[0])
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gateEntered:
	case <-ctx.Done():
		t.Fatal("head batch never reached its journal fsync")
	}
	var sibs []*graphbolt.SubmitTicket
	for _, b := range strm.Batches[1:5] {
		tk, err := srv.Submit(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		sibs = append(sibs, tk)
	}
	close(gate)

	if _, err := tk0.Wait(ctx); err != nil {
		t.Fatalf("head batch failed: %v", err)
	}
	var merged graphbolt.Applied
	for i, tk := range sibs {
		a, err := tk.Wait(ctx)
		if err != nil {
			t.Fatalf("queued batch %d failed: %v", i+1, err)
		}
		if i == 0 {
			merged = a
		} else if a.Trace.ID != merged.Trace.ID || a.Seq != merged.Seq {
			t.Fatalf("queued batches resolved under different applies: trace %d/seq %d vs %d/%d",
				a.Trace.ID, a.Seq, merged.Trace.ID, merged.Seq)
		}
	}
	if merged.Batches != len(sibs) || len(merged.Trace.Traces) != len(sibs) {
		t.Fatalf("coalesced apply covers %d batches / traces %v, want all %d queued batches",
			merged.Batches, merged.Trace.Traces, len(sibs))
	}
	for _, tk := range sibs {
		if !merged.Trace.Covers(tk.Trace()) {
			t.Fatalf("merged trace set %v misses ticket %d", merged.Trace.Traces, tk.Trace())
		}
	}

	// The per-phase timeline: complete, internally disjoint, and summing
	// to the observed end-to-end latency within scheduling tolerance.
	bt := merged.Trace
	if bt.Phases.QueueWait <= 0 || bt.Phases.Journal <= 0 || bt.Phases.Apply <= 0 {
		t.Fatalf("phases incomplete: %+v (queue wait, journal and apply must all be measured)", bt.Phases)
	}
	e2e, total := bt.E2E(), bt.Phases.Total()
	if total <= 0 || e2e <= 0 {
		t.Fatalf("degenerate timeline: e2e=%v phases=%v", e2e, total)
	}
	if diff := e2e - total; diff < -50*time.Millisecond || diff > 500*time.Millisecond {
		t.Fatalf("phase sum %v vs end-to-end %v: off by %v, outside tolerance", total, e2e, diff)
	}

	// The head batch's ring timeline holds the full lifecycle, and each
	// sibling's coalesce event names the absorbing head.
	headID := bt.ID
	kindsFor := func(id uint64) map[string]bool {
		ks := map[string]bool{}
		for _, e := range rec.Snapshot() {
			if e.Trace == id {
				ks[e.Kind.String()] = true
			}
		}
		return ks
	}
	for _, k := range []string{"admitted", "enqueued", "validated", "journaled", "applied", "published"} {
		if !kindsFor(headID)[k] {
			t.Fatalf("head trace %d missing %q event; has %v", headID, k, kindsFor(headID))
		}
	}
	for _, tk := range sibs[1:] {
		if !kindsFor(tk.Trace())["coalesced"] {
			t.Fatalf("sibling trace %d has no coalesce event", tk.Trace())
		}
	}

	// Phase events: recovery ran before any batch (trace 0); the head
	// apply's engine phases carry its trace.
	phasesFor := func(id uint64) map[string]bool {
		ps := map[string]bool{}
		for _, e := range rec.Snapshot() {
			if e.Kind == flight.KindPhase && e.Trace == id {
				name, _, _ := strings.Cut(e.Note(), " ")
				ps[strings.TrimPrefix(name, "name=")] = true
			}
		}
		return ps
	}
	if !phasesFor(0)["recovery"] {
		t.Fatalf("no recovery phase event under trace 0; have %v", phasesFor(0))
	}
	for _, p := range []string{"apply_batch", "refine"} {
		if !phasesFor(headID)[p] {
			t.Fatalf("head trace %d missing %q phase event; has %v", headID, p, phasesFor(headID))
		}
	}

	// Phase 2 — scripted fsync failure: the next batch's journal append
	// fails, the server goes Degraded, and the transition forces a dump
	// focused on the failing batch's trace.
	dumpsBefore := rec.Dumps()
	fsync.FailEveryKth(1, nil)
	tkBad, err := srv.Submit(ctx, strm.Batches[5])
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Health().State() != graphbolt.HealthDegraded {
		if time.Now().After(deadline) {
			t.Fatalf("server never went Degraded; health=%+v", srv.Health().Info())
		}
		time.Sleep(100 * time.Microsecond)
	}
	fsync.FailEveryKth(0, nil)
	if _, err := tkBad.Wait(ctx); err != nil {
		t.Fatalf("held batch failed after repair: %v", err)
	}

	if rec.Dumps() <= dumpsBefore {
		t.Fatal("Degraded transition produced no flight dump")
	}
	dump := rec.LastDump()
	if dump == nil || dump.Focus != tkBad.Trace() {
		t.Fatalf("dump focus = %+v, want the failing batch's trace %d", dump, tkBad.Trace())
	}
	var sawFailure bool
	for _, e := range dump.Events {
		if e.Trace == tkBad.Trace() &&
			(e.Kind == flight.KindJournalFailed || e.Kind == flight.KindFsyncFailed) {
			sawFailure = true
		}
	}
	if !sawFailure {
		t.Fatalf("dump holds no journal/fsync failure event for trace %d", tkBad.Trace())
	}

	if _, err := srv.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	// Phase 3 — /debug/flight serves the same events filtered by trace.
	req := httptest.NewRequest("GET", "/debug/flight?trace="+strconv.FormatUint(tkBad.Trace(), 10), nil)
	rw := httptest.NewRecorder()
	srv.Flight().Handler().ServeHTTP(rw, req)
	if rw.Code != 200 {
		t.Fatalf("/debug/flight status %d: %s", rw.Code, rw.Body.String())
	}
	var resp struct {
		Events []struct {
			Seq   uint64 `json:"seq"`
			Trace uint64 `json:"trace"`
			Kind  string `json:"kind"`
		} `json:"events"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad /debug/flight JSON: %v", err)
	}
	want := map[uint64]string{}
	for _, e := range rec.Snapshot() {
		if e.Trace == tkBad.Trace() {
			want[e.Seq] = e.Kind.String()
		}
	}
	if len(resp.Events) != len(want) {
		t.Fatalf("/debug/flight?trace= returned %d events, ring holds %d for that trace",
			len(resp.Events), len(want))
	}
	kinds := map[string]bool{}
	for _, e := range resp.Events {
		if e.Trace != tkBad.Trace() {
			t.Fatalf("trace filter leaked trace %d", e.Trace)
		}
		if want[e.Seq] != e.Kind {
			t.Fatalf("event %d: HTTP kind %q vs ring %q", e.Seq, e.Kind, want[e.Seq])
		}
		kinds[e.Kind] = true
	}
	if !kinds["journal_failed"] && !kinds["fsync_failed"] {
		t.Fatal("/debug/flight view of the failing trace has no failure event")
	}
	if !kinds["published"] {
		t.Fatal("/debug/flight view of the failing trace has no publication event")
	}

	if err := srv.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestFlightRecorderOverhead interleaves identical apply workloads with
// and without a flight recorder and asserts the recorder costs under 5%
// of median apply latency (plus fixed slack for scheduler noise) — the
// O(1), zero-alloc hot-path claim, measured end to end.
func TestFlightRecorderOverhead(t *testing.T) {
	const nVerts = 128
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	edges := gen.RMAT(5, nVerts, 3000, gen.WeightUniform)
	strm, err := stream.FromEdges(nVerts, edges, stream.Config{
		BatchSize:  10,
		NumBatches: rounds,
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	mkServer := func(rec *graphbolt.FlightRecorder) *graphbolt.Server[float64, float64] {
		eng, err := graphbolt.NewEngine[float64, float64](strm.Base, graphbolt.NewPageRank(),
			graphbolt.Options{MaxIterations: 4})
		if err != nil {
			t.Fatal(err)
		}
		return graphbolt.NewServer(eng, graphbolt.ServerOptions{
			Flight: rec,
			Logger: slog.New(slog.DiscardHandler),
		})
	}
	rec := graphbolt.NewFlightRecorder(graphbolt.FlightOptions{Logger: slog.New(slog.DiscardHandler)})
	base := mkServer(nil)
	flighted := mkServer(rec)
	defer base.Close(nil)
	defer flighted.Close(nil)

	ctx := context.Background()
	var baseDur, flightDur []time.Duration
	for _, b := range strm.Batches[:rounds] {
		t0 := time.Now()
		if _, err := base.SubmitWait(ctx, b); err != nil {
			t.Fatal(err)
		}
		baseDur = append(baseDur, time.Since(t0))
		t1 := time.Now()
		if _, err := flighted.SubmitWait(ctx, b); err != nil {
			t.Fatal(err)
		}
		flightDur = append(flightDur, time.Since(t1))
	}
	if rec.Events() == 0 {
		t.Fatal("flighted server recorded nothing; the comparison is vacuous")
	}
	baseMed, flightMed := median(baseDur), median(flightDur)
	budget := baseMed + baseMed/20 + 2*time.Millisecond
	if flightMed > budget {
		t.Fatalf("median apply latency with flight = %v, without = %v: exceeds 5%%+2ms budget %v",
			flightMed, baseMed, budget)
	}
	t.Logf("apply latency median: base=%v flight=%v (%d events recorded)",
		baseMed, flightMed, rec.Events())
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
