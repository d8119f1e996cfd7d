package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

func (m metricSet) value(name string) float64 { return m[name].Value }

// runConfig is one invocation: a workload, a seed, a window and whether
// to trace.
type runConfig struct {
	sp      spec
	seed    uint64
	seconds float64
	traced  bool
	outDir  string // durable state, probe files and the trace land here
}

// phase windows as shares of -seconds. Untraced: open, and a fixed
// number of drain batches sized to take at most the rest. A traced run
// spends about the same total on an untraced open (the baseline for the
// tracing overhead, and long enough for the tail percentiles), a traced
// open, a short drain and the layer probes.
const (
	openShare        = 0.75
	tracedBaseShare  = 0.45
	tracedOpenShare  = 0.3
	tracedDrainShare = 0.25 // of the untraced drain
	setupRepeats     = 11
)

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload  string         `json:"workload"`
	Seed      uint64         `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Traced    bool           `json:"traced"`
	Correct   bool           `json:"correct"`
	Failure   string         `json:"failure,omitempty"` // why Correct is false
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Valid     bool           `json:"valid"`
	Invalid   []string       `json:"invalid,omitempty"` // why the numbers should not be compared
	Metrics   metricSet      `json:"metrics"`
	Samples   map[string]int `json:"samples"` // sample count behind each percentile family
	Facts     map[string]any `json:"facts"`   // graph shape, rates, phase durations
}

func (r *runResult) invalid(format string, args ...any) {
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, args...))
}

func scaled(n int, factor float64) int { return max(int(float64(n)*factor+0.5), 1) }

// runWorkload runs one workload end to end in this process.
func runWorkload(cfg runConfig) (*runResult, error) {
	sp := cfg.sp
	res := &runResult{
		Workload: sp.Name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		Metrics: metricSet{}, Samples: map[string]int{}, Facts: map[string]any{},
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	openWin := time.Duration(openShare * float64(window))
	drainBatches := scaled(sp.DrainBatches, cfg.seconds/referenceSeconds)
	baseWin := time.Duration(0)
	if cfg.traced {
		baseWin = time.Duration(tracedBaseShare * float64(window))
		openWin = time.Duration(tracedOpenShare * float64(window))
		drainBatches = scaled(drainBatches, tracedDrainShare)
	}
	nProbe := scaled(probeBatches, cfg.seconds/referenceSeconds)
	nOpen := int(max(openWin, baseWin) / sp.WritePeriod)
	in, err := generate(sp, cfg.seed, max(warmupBatches+nOpen+drainBatches, nProbe))
	if err != nil {
		return nil, err
	}
	res.Facts["vertices"] = sp.Vertices
	res.Facts["edges_loaded"] = len(in.loaded)
	res.Facts["batch_edges"] = sp.BatchEdges
	res.Facts["write_rate_per_s"] = float64(time.Second) / float64(sp.WritePeriod)
	res.Facts["read_rate_per_s"] = sp.readsPerSecond()
	res.Facts["drain_batches"] = drainBatches

	var tr *tracer
	var base *openResult
	var baseLat latencies
	var sys *system
	var times setupTimes
	if cfg.traced {
		tr = newTracer()
		// The same batches through an untraced server first: the tails
		// are measured here, and trace.overhead_pct compares against it.
		plain, _, err := setup(in, false, cfg.outDir)
		if err != nil {
			return nil, err
		}
		base, err = plain.openPhase(in, baseWin, nil)
		plain.close()
		if err != nil {
			return nil, err
		}
		baseLat = base.latencies(plain)
		releaseMemory()
		if sys, times, err = setup(in, true, cfg.outDir); err != nil {
			return nil, err
		}
	} else {
		// Set-up is timed setupRepeats times; the last instance is the
		// one measured.
		var totals []float64
		for i := range setupRepeats {
			if sys, times, err = setup(in, false, cfg.outDir); err != nil {
				return nil, err
			}
			totals = append(totals, times.totalS)
			if i < setupRepeats-1 {
				sys.close()
				releaseMemory()
			}
		}
		res.Metrics.set("setup_s", medianOf(totals), "s")
		in.loaded = nil // the harness's copy; the program has its graph
		releaseMemory()
	}
	defer sys.close()

	open, err := sys.openPhase(in, openWin, tr)
	if err != nil {
		return nil, err
	}
	drain, err := sys.drainPhase(in, drainBatches)
	if err != nil {
		return nil, err
	}
	peakRSS := readVmHWM()

	ctx, cancel := context.WithTimeout(context.Background(), stepTimeout)
	defer cancel()
	resetWork, verr := sys.verify(ctx)
	res.Correct = verr == nil
	if verr != nil {
		res.Failure = verr.Error()
	}
	if open.regressed > 0 {
		res.Correct = false
		res.Failure = strings.TrimSpace(res.Failure + fmt.Sprintf(" %d reads saw a generation older than an earlier read on the same connection", open.regressed))
	}

	res.endToEnd(open, drain, peakRSS, sys)
	res.Facts["open_s"] = open.window.Seconds()
	res.Facts["drain_s"] = drain.elapsed.Seconds()
	res.Facts["reset_edge_computations"] = resetWork

	if cfg.traced {
		res.perLayer(open, base, &baseLat, drain, times, sys)
		pr := &probes{in: in, n: nProbe, outDir: cfg.outDir, tr: tr, m: res.Metrics}
		if err := pr.run(); err != nil {
			return nil, err
		}
		res.Metrics.set("replica.http_overhead_us_p50",
			max(loopbackValueUs(open.reads)-res.Metrics.value("replica.api_value_inproc_us_p50"), 0), "us")
		if err := tr.write(filepath.Join(cfg.outDir, "trace-"+sp.Name+".json"), sp.Name, cfg.seed); err != nil {
			return nil, err
		}
	}
	res.validate(open, base)
	return res, nil
}

// releaseMemory returns a torn-down instance's heap to the OS so the
// next one starts from the same footing.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// readVmHWM is the process's peak resident set in MB (0 where /proc is
// not available).
func readVmHWM() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// latencies are the three latency families of one open phase, in ms.
type latencies struct {
	update, visible, read sample
	attempted, failed     int
	firstReadErr          error
}

// latencies folds an open phase into its latency families. A failed
// operation is entered at the length of the window, so it is missing
// from every percentile it could have met.
func (o *openResult) latencies(sys *system) latencies {
	never := ms(o.window)
	var l latencies
	for i := range o.writes {
		w := &o.writes[i]
		l.attempted++
		if w.err != nil {
			l.failed++
			l.update.add(never)
			l.visible.add(never)
			continue
		}
		l.update.add(ms(w.resolved.Sub(w.due)))
		// The node that serves reads: the follower where there is one,
		// otherwise the leader itself.
		seen := w.resolved
		if v := sys.visibleAt(w.ap.Seq); !v.IsZero() {
			seen = v
		}
		l.visible.add(ms(seen.Sub(w.due)))
	}
	for _, rd := range o.reads {
		l.attempted++
		if rd.err != nil {
			l.failed++
			if l.firstReadErr == nil {
				l.firstReadErr = rd.err
			}
			l.read.add(never)
			continue
		}
		if !rd.warm {
			l.read.add(ms(rd.done.Sub(rd.sent)))
		}
	}
	return l
}

// endToEnd fills the user-visible metrics: medians, and for reads the
// lower quartile, because what the host adds to a 0.025 ms read is
// one-sided and reaches the median in some runs and not in others. The
// other percentiles of the same families are per-layer metrics of the
// traced pass (e2e.*): on two shared virtual CPUs they measure the
// neighbours.
func (r *runResult) endToEnd(open *openResult, drain *drainResult, peakRSS float64, sys *system) {
	l := open.latencies(sys)
	r.Attempted = l.attempted + drain.batches
	r.Failed = l.failed + drain.failed
	if l.firstReadErr != nil {
		r.Facts["first_read_error"] = l.firstReadErr.Error()
	}
	r.Samples["update"] = l.update.n()
	r.Samples["read"] = l.read.n()
	r.Samples["drain_applies"] = drain.applies
	m := r.Metrics
	m.set("update_p50_ms", l.update.percentile(50), "ms")
	rate := drain.rates.percentile(50)
	if drain.rates.n() == 0 { // a single apply call has no interval
		rate = float64(drain.edges) / drain.elapsed.Seconds()
	}
	m.set("drain_edges_per_s", rate, "1/s")
	m.set("read_p25_ms", l.read.percentile(25), "ms")
	m.set("replica_visible_p50_ms", l.visible.percentile(50), "ms")
	m.set("peak_rss_mb", peakRSS, "MB")
}

// Limits past which a run's numbers are not comparable. The generator
// polls the clock up to each due time, so a Submit that goes out late
// means the previous batch was still being applied: one in twenty later
// than lateLimitMs and the rate is more than the program sustains, the
// backlog an open loop would grow. A read burst whose median start is
// that late means over half the batches ran into the reads' part of the
// period.
const lateLimitMs = 5.0

// validate marks the run not comparable when the host or the load
// generator, not the program, shaped the numbers. It runs last: perLayer
// may already have recorded a complaint.
func (r *runResult) validate(open, base *openResult) {
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		r.invalid("GOMAXPROCS %d exceeds nproc %d", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	if late := open.lateWrites.percentile(95); late > lateLimitMs {
		r.invalid("writes went out %.1f ms late at p95 (limit %.0f ms): the rate is above what the program sustains", late, lateLimitMs)
	}
	if late := open.lateReads.percentile(50); late > lateLimitMs {
		r.invalid("read bursts began %.1f ms late at the median (limit %.0f ms)", late, lateLimitMs)
	}
	// The traced pass drains a quarter as much and reports no rate; its
	// tails come from its untraced window.
	if n := r.Samples["drain_applies"]; base == nil && n < 2*minTailSamples {
		r.invalid("%d apply calls in drain do not support a median", n)
	}
	if base != nil {
		for _, fam := range []struct {
			name string
			n    int
			p    float64
		}{{"update", len(base.writes), 95}, {"read", len(base.reads), 99}} {
			if !supports(fam.n, fam.p) {
				r.invalid("%d %s samples do not support p%.0f (highest supported: p%.1f)", fam.n, fam.name, fam.p, supportedPercentile(fam.n))
			}
		}
	}
	r.Valid = len(r.Invalid) == 0
}

// perLayer fills the metrics read off the live traced system: ticket
// phases, the private registry, the load generator and the GC.
func (r *runResult) perLayer(open, base *openResult, baseLat *latencies, drain *drainResult, times setupTimes, sys *system) {
	m := r.Metrics
	r.Samples["tail_update"] = baseLat.update.n()
	r.Samples["tail_read"] = baseLat.read.n()
	m.set("e2e.update_p95_ms", baseLat.update.percentile(95), "ms")
	m.set("e2e.read_p50_ms", baseLat.read.percentile(50), "ms")
	m.set("e2e.read_p99_ms", baseLat.read.percentile(99), "ms")
	m.set("e2e.replica_visible_p95_ms", baseLat.visible.percentile(95), "ms")
	m.set("graph.build_s", times.buildS, "s")
	m.set("core.initial_run_s", times.initialRunS, "s")

	var queue, coalesce, validate, apply, publish, journal, lag sample
	var phaseSum, e2e time.Duration
	applies := map[uint64]bool{}
	ok := 0
	for i := range open.writes {
		w := &open.writes[i]
		if w.err != nil {
			continue
		}
		ok++
		applies[w.ap.Seq] = true
		p := w.ap.Trace.Phases
		queue.add(ms(p.QueueWait))
		coalesce.add(ms(p.Coalesce))
		validate.add(ms(p.Validate))
		apply.add(ms(p.Apply))
		publish.add(ms(p.Publish))
		journal.add(ms(p.Journal))
		phaseSum += p.Total()
		e2e += w.resolved.Sub(w.ap.Trace.EnqueuedAt)
		if at := sys.visibleAt(w.ap.Seq); !at.IsZero() {
			lag.add(ms(at.Sub(w.resolved)))
		}
	}
	r.Samples["traced_update"] = ok
	m.set("serve.queue_wait_ms_p50", queue.percentile(50), "ms")
	m.set("serve.queue_wait_ms_p95", queue.percentile(95), "ms")
	m.set("serve.coalesce_ms_p50", coalesce.percentile(50), "ms")
	m.set("serve.validate_ms_p50", validate.percentile(50), "ms")
	m.set("serve.apply_ms_p50", apply.percentile(50), "ms")
	m.set("serve.publish_ms_p50", publish.percentile(50), "ms")
	m.set("serve.batches_per_apply_mean_open", float64(ok)/float64(max(len(applies), 1)), "count")
	m.set("serve.batches_per_apply_mean_drain", float64(drain.batches-drain.failed)/float64(max(drain.applies, 1)), "count")
	ratio := 0.0
	if e2e > 0 {
		ratio = float64(phaseSum) / float64(e2e)
	}
	m.set("serve.phase_sum_over_e2e", ratio, "ratio")
	if ratio < 0.95 || ratio > 1.05 {
		r.invalid("flight phases sum to %.3f of the ticket latency the harness measured (want 0.95-1.05)", ratio)
	}
	m.set("durable.journal_ms_p50", journal.percentile(50), "ms")
	m.set("replica.stream_lag_ms_p50", lag.percentile(50), "ms")
	m.set("replica.lag_records_max", open.lag.max(), "count")
	resumes := 0.0
	if sys.follower != nil {
		resumes = float64(sys.follower.Resumes())
	}
	m.set("replica.resumes", resumes, "count")

	snap := sys.reg.Snapshot()
	hits := float64(snap.Counters["graphbolt_qcache_hits_total"])
	misses := float64(snap.Counters["graphbolt_qcache_misses_total"])
	m.set("qcache.hit_ratio", hits/max(hits+misses, 1), "ratio")
	util := snap.Histograms["graphbolt_parallel_worker_utilization"]
	m.set("parallel.worker_utilization_mean", util.Sum/max(float64(util.Count), 1), "ratio")

	// Tracing overhead: the same batches through the untraced and the
	// traced server, compared at the median.
	var plain, traced sample
	for i := range min(len(base.writes), len(open.writes)) {
		if b, t := &base.writes[i], &open.writes[i]; b.err == nil && t.err == nil {
			plain.add(ms(b.resolved.Sub(b.due)))
			traced.add(ms(t.resolved.Sub(t.due)))
		}
	}
	overhead := 0.0
	if p := plain.percentile(50); p > 0 {
		overhead = (traced.percentile(50) - p) / p * 100
	}
	m.set("trace.overhead_pct", overhead, "%")
	m.set("loadgen.write_late_ms_p99", open.lateWrites.percentile(99), "ms")
	m.set("loadgen.read_late_ms_p99", open.lateReads.percentile(99), "ms")
	m.set("gc.pause_ms_total", open.gcPauseMs, "ms")
	m.set("gc.cycles", float64(open.gcCycles), "count")
}
