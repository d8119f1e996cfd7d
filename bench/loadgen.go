package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	graphbolt "repro"
	"repro/internal/gen"
)

// spinMargin is how long before a write's due time the generator stops
// sleeping and polls the clock instead: a timer on this sandbox's idle
// virtual CPU fires 0.5-3 ms late, which would otherwise be a tenth of
// the latency being measured and different on every host.
const spinMargin = 3 * time.Millisecond

// writeRec follows one submitted batch from its due time to the moment
// the harness saw its ticket resolve.
type writeRec struct {
	due       time.Time // when the schedule said to submit
	submitAt  time.Time // when Submit was called
	submitted time.Time // when Submit returned
	resolved  time.Time // when the generator received the ticket's result
	tk        *graphbolt.SubmitTicket
	ap        graphbolt.Applied
	err       error // Submit refusal or the ticket's Err
}

// readRec is one HTTP read.
type readRec struct {
	endpoint   string
	sent, done time.Time // request written, full body read
	err        error     // transport error, non-200, or a body that does not parse
	warm       bool      // first read of a burst: sent, checked, not timed
}

// openResult is what the open phase observed.
type openResult struct {
	window     time.Duration
	writes     []writeRec
	reads      []readRec
	lag        sample // follower lag in records, sampled at each write's due time
	regressed  int    // reads whose generation went backwards on the connection
	gcPauseMs  float64
	gcCycles   uint32
	lateWrites sample // ms Submit was called after a due time
	lateReads  sample // ms a read burst began after its place in the period
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// spinUntil sleeps to spinMargin before t and polls the clock from
// there, so the caller continues within microseconds of t.
func spinUntil(t time.Time) {
	sleepUntil(t.Add(-spinMargin))
	for time.Now().Before(t) {
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openPhase is the whole load generator, one goroutine: every
// WritePeriod it submits a batch at its due time and waits for the
// ticket, timing it from the due time; gapStart into the period it
// issues a burst of reads on the one keep-alive connection, each sent
// when the previous response has been read. A batch that is still being
// applied when the next is due delays it, and that delay is counted:
// the next batch is timed from when it was due, not from when it went.
// It returns once the follower, if there is one, has applied the last
// record.
func (s *system) openPhase(in *inputs, window time.Duration, tr *tracer) (*openResult, error) {
	sp := s.sp
	nWrites := int(window / sp.WritePeriod)
	if s.next+nWrites > len(in.batches) {
		return nil, fmt.Errorf("open: stream too short")
	}
	res := &openResult{window: window, writes: make([]writeRec, nWrites)}
	ctx, cancel := context.WithTimeout(context.Background(), window+stepTimeout)
	defer cancel()

	rd, err := newReader(s, in.seed)
	if err != nil {
		return nil, fmt.Errorf("open: prime the read connection: %w", err)
	}
	defer rd.client.CloseIdleConnections()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now().Add(2 * spinMargin)
	for i := range nWrites {
		w := &res.writes[i]
		b := in.batches[s.next]
		w.due = start.Add(time.Duration(i) * sp.WritePeriod)
		spinUntil(w.due)
		w.submitAt = time.Now()
		res.lateWrites.add(ms(w.submitAt.Sub(w.due)))
		if s.follower != nil {
			res.lag.add(float64(s.follower.Lag()))
		}
		w.tk, w.err = s.srv.Submit(ctx, b)
		w.submitted = time.Now()
		if w.err == nil {
			s.submitted(b)
			select {
			case w.ap = <-w.tk.Done():
				w.err = w.ap.Err
			case <-ctx.Done():
				w.err = ctx.Err()
			}
		}
		w.resolved = time.Now()
		if w.err == nil {
			s.lastSeq = max(s.lastSeq, w.ap.Seq)
		}
		burstAt := w.due.Add(time.Duration(gapStart * float64(sp.WritePeriod)))
		rd.burst(ctx, burstAt, w.due.Add(sp.WritePeriod-spinMargin), tr, &res.lateReads)
	}
	runtime.ReadMemStats(&after)
	res.gcPauseMs = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	res.gcCycles = after.NumGC - before.NumGC

	if err := s.awaitFollower(ctx, s.lastSeq); err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	if tr != nil {
		for i := range res.writes {
			w := &res.writes[i]
			if w.tk == nil {
				continue
			}
			tr.record(0, "submit", w.tk.Trace(), w.submitAt, w.submitted)
			wait := tr.record(0, "ticket.wait", w.tk.Trace(), w.submitted, w.resolved)
			recordPhases(tr, wait, w.ap)
			if at := s.visibleAt(w.ap.Seq); w.err == nil && !at.IsZero() {
				tr.record(0, "follower.visible", w.tk.Trace(), w.resolved, at)
			}
		}
	}
	res.reads, res.regressed = rd.recs, rd.regressed
	return res, nil
}

// recordPhases lays the six flight phases out as consecutive child
// spans of a ticket.wait span, from the trace's enqueue time.
func recordPhases(tr *tracer, parent int, ap graphbolt.Applied) {
	p := ap.Trace.Phases
	at := ap.Trace.EnqueuedAt
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{
		{"phase.queue_wait", p.QueueWait}, {"phase.validate", p.Validate}, {"phase.coalesce", p.Coalesce},
		{"phase.journal", p.Journal}, {"phase.apply", p.Apply}, {"phase.publish", p.Publish},
	} {
		tr.record(parent, ph.name, ap.Trace.ID, at, at.Add(ph.d))
		at = at.Add(ph.d)
	}
}

// drainResult is what the drain phase observed.
type drainResult struct {
	batches, applies int
	edges            int
	elapsed          time.Duration
	failed           int
	rates            sample // mutations per second of each apply call after the first
}

// applyGroup is one apply call of the drain phase: the batches the
// serve loop coalesced into one sequence number.
type applyGroup struct {
	seq   uint64
	edges int
	at    time.Time // when the harness saw the first of its tickets resolve
}

// drainPhase submits k batches back to back — Submit blocks while the
// queue is full, so the apply loop always has a full queue to coalesce
// from — then waits for Sync and for the follower, if there is one. A
// second goroutine receives the tickets in order and stamps each apply
// call's completion.
func (s *system) drainPhase(in *inputs, k int) (*drainResult, error) {
	if s.next+k > len(in.batches) {
		return nil, fmt.Errorf("drain: stream too short")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*stepTimeout)
	defer cancel()
	res := &drainResult{batches: k}
	tickets := make([]*graphbolt.SubmitTicket, k)
	sent := make(chan int, k) // sized to the number of sends
	var groups []applyGroup
	waitFailed := 0
	first := s.next
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range sent {
			ap, err := tickets[i].Wait(ctx)
			if err != nil {
				waitFailed++
				continue
			}
			if n := len(groups); n == 0 || groups[n-1].seq != ap.Seq {
				groups = append(groups, applyGroup{seq: ap.Seq, at: time.Now()})
			}
			groups[len(groups)-1].edges += batchSize(in.batches[first+i])
		}
	}()
	start := time.Now()
	for i := range k {
		b := in.batches[first+i]
		tk, err := s.srv.Submit(ctx, b)
		if err != nil {
			res.failed++
			continue
		}
		s.submitted(b)
		tickets[i] = tk
		res.edges += batchSize(b)
		sent <- i
	}
	close(sent)
	_, syncErr := s.srv.Sync(ctx)
	wg.Wait()
	if syncErr != nil {
		return nil, fmt.Errorf("drain: sync: %w", syncErr)
	}
	res.failed += waitFailed
	res.applies = len(groups)
	if len(groups) > 0 {
		s.lastSeq = max(s.lastSeq, groups[len(groups)-1].seq)
	}
	// With a follower the work is done when the node that serves reads
	// has it, for the phase as a whole and for each apply call.
	if err := s.awaitFollower(ctx, s.lastSeq); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	res.elapsed = time.Since(start)
	for i := range groups {
		if at := s.visibleAt(groups[i].seq); !at.IsZero() {
			groups[i].at = at
		}
		if i > 0 {
			res.rates.add(float64(groups[i].edges) / groups[i].at.Sub(groups[i-1].at).Seconds())
		}
	}
	return res, nil
}

// reader is the one keep-alive read connection.
type reader struct {
	sp        spec
	base      string
	client    *http.Client
	rng       *gen.RNG
	lastGen   uint64
	regressed int
	recs      []readRec
}

func newReader(s *system, seed uint64) (*reader, error) {
	r := &reader{
		sp: s.sp, base: s.readURL,
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
		rng:    gen.NewRNG(seed<<8 | 1),
	}
	// One untimed read opens the connection.
	if err := r.get(context.Background(), "/v1/snapshot"); err != nil {
		return nil, err
	}
	return r, nil
}

// burst issues the period's reads from at on, back to back, and stops
// early at until: a batch that took most of its period leaves a shorter
// burst or none. The first read wakes a connection and a CPU that have
// idled since the last burst; it is checked like the others but not
// timed.
func (r *reader) burst(ctx context.Context, at, until time.Time, tr *tracer, late *sample) {
	sleepUntil(at)
	late.add(ms(time.Since(at)))
	for j := range r.sp.BurstReads {
		if !time.Now().Before(until) {
			return
		}
		ep, path := r.pick()
		rec := readRec{endpoint: ep, warm: j == 0, sent: time.Now()}
		rec.err = r.get(ctx, path)
		rec.done = time.Now()
		tr.record(0, "http.read."+ep, 0, rec.sent, rec.done)
		r.recs = append(r.recs, rec)
	}
}

// pick draws the next request from the workload's mix.
func (r *reader) pick() (endpoint, path string) {
	roll := r.rng.Intn(100)
	ep := r.sp.Mix[len(r.sp.Mix)-1].Endpoint
	for _, m := range r.sp.Mix {
		if roll < m.Percent {
			ep = m.Endpoint
			break
		}
		roll -= m.Percent
	}
	switch ep {
	case epValue:
		n := r.sp.ValueVertices
		if n <= 0 {
			n = r.sp.Vertices
		}
		return ep, "/v1/value/" + strconv.Itoa(r.rng.Intn(n))
	case epTopK:
		return ep, "/v1/topk?k=20"
	}
	return epSnapshot, "/v1/snapshot"
}

// get issues one read, reads the whole body, and checks it: HTTP 200,
// a JSON body naming its generation, and a generation no older than
// the last one this connection saw.
func (r *reader) get(ctx context.Context, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	var head struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(body, &head); err != nil {
		return fmt.Errorf("GET %s: body of %d bytes: %w", path, len(body), err)
	}
	if head.Generation == 0 {
		return fmt.Errorf("GET %s: response names no generation", path)
	}
	if head.Generation < r.lastGen {
		r.regressed++
	} else {
		r.lastGen = head.Generation
	}
	return nil
}
