package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	graphbolt "repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/qcache"
	"repro/internal/replica"
	"repro/internal/serve"
	"repro/internal/wal"
)

// Probe sizes at the reference window. The issue's full-length figures
// (60 replayed batches, 200 appends) are cut to a third to fit the
// driver's cap; they scale with -seconds like everything else.
const (
	probeBatches    = 20
	probeAppends    = 200
	probeNoopRounds = 2000
	probeNoopBurst  = 20000
	probeReads      = 200
)

// probes times calls into each layer's public functions, outside any
// server, over the workload's own graph and first batches. Every probe
// is one span; results land in m under the layer-prefixed names.
type probes struct {
	in     *inputs
	n      int // batches replayed per probe
	outDir string
	tr     *tracer
	m      metricSet
}

func (p *probes) engine(retain int) (*graphbolt.Engine[float64, float64], error) {
	g, err := graphbolt.BuildGraph(p.in.sp.Vertices, p.in.loaded)
	if err != nil {
		return nil, err
	}
	return graphbolt.NewEngine[float64, float64](g, p.in.sp.program(), graphbolt.Options{Retain: retain})
}

func (p *probes) run() error {
	for _, step := range []struct {
		name string
		fn   func() error
	}{
		{"graph", p.graphApply},
		{"core", p.core},
		{"core_1cpu", p.core1CPU},
		{"serve_noop", p.serveNoop},
		{"wal", p.wal},
		{"durable", p.durable},
		{"replica", p.replica},
		{"partition", p.partition},
	} {
		start := time.Now()
		if err := step.fn(); err != nil {
			return fmt.Errorf("probe %s: %w", step.name, err)
		}
		p.tr.record(0, "probe."+step.name, 0, start, time.Now())
	}
	return nil
}

// graphApply replays the batches through Graph.Apply alone.
func (p *probes) graphApply() error {
	g, err := graphbolt.BuildGraph(p.in.sp.Vertices, p.in.loaded)
	if err != nil {
		return err
	}
	var dur sample
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range p.in.batches[:p.n] {
		t := time.Now()
		g, _ = g.Apply(b)
		dur.add(ms(time.Since(t)))
	}
	runtime.ReadMemStats(&after)
	p.m.set("graph.apply_ms_p50", dur.percentile(50), "ms")
	p.m.set("graph.apply_ns_per_graph_edge", dur.percentile(50)*1e6/float64(g.NumEdges()), "ns")
	p.m.set("graph.apply_alloc_mb_per_batch", float64(after.TotalAlloc-before.TotalAlloc)/float64(p.n)/(1<<20), "MB")
	return nil
}

// core drives a bare engine: ApplyBatch, the O(V) publish copy, the
// consecutive-generation diff, the query cache and the in-process API.
func (p *probes) core() error {
	eng, err := p.engine(2)
	if err != nil {
		return err
	}
	eng.Run()
	var apply, copyMs, diffMs, edgeComps, iters sample
	var tracked int64
	for _, b := range p.in.batches[:p.n] {
		t := time.Now()
		st, err := eng.ApplyBatch(b)
		if err != nil {
			return err
		}
		apply.add(ms(time.Since(t)))
		edgeComps.add(float64(st.EdgeComputations))
		iters.add(float64(st.RefineIterations))
		tracked = st.TrackedSnapshotBytes

		snap := eng.Snapshot()
		t = time.Now()
		sinkValues = snap.CopyValues()
		copyMs.add(ms(time.Since(t)))

		t = time.Now()
		if _, err := eng.DiffSnapshots(snap.Generation-1, snap.Generation); err != nil {
			return err
		}
		diffMs.add(ms(time.Since(t)))
	}
	fresh, err := graphbolt.NewEngine[float64, float64](eng.Graph(), p.in.sp.program(), graphbolt.Options{})
	if err != nil {
		return err
	}
	reset := fresh.Run()

	refine := max(apply.percentile(50)-p.m.value("graph.apply_ms_p50")-copyMs.percentile(50), 0)
	p.m.set("core.applybatch_ms_p50", apply.percentile(50), "ms")
	p.m.set("core.publish_copy_ms_p50", copyMs.percentile(50), "ms")
	p.m.set("core.refine_ms_p50", refine, "ms")
	p.m.set("core.edge_computations_per_batch", edgeComps.mean(), "count")
	p.m.set("core.refine_ns_per_edge_computation", refine*1e6/max(edgeComps.mean(), 1), "ns")
	p.m.set("core.work_ratio_vs_reset", edgeComps.mean()/float64(max(reset.EdgeComputations, 1)), "ratio")
	p.m.set("core.refine_iterations_mean", iters.mean(), "count")
	p.m.set("core.tracked_snapshot_mb", float64(tracked)/(1<<20), "MB")
	p.m.set("core.diff_ms_p50", diffMs.percentile(50), "ms")
	return p.reads(eng)
}

// sinkValues keeps the timed copy from being optimised away.
var sinkValues []float64

// reads times the query cache and the API handler in process, over the
// engine the core probe left behind.
func (p *probes) reads(eng *graphbolt.Engine[float64, float64]) error {
	snap := eng.Snapshot()
	var cold, warm sample
	for range 10 {
		t := time.Now()
		qcache.TopK[float64](nil, snap, 20)
		cold.add(ms(time.Since(t)))
	}
	cache := qcache.New(8<<20, nil)
	qcache.TopK(cache, snap, 20)
	for range probeReads {
		t := time.Now()
		qcache.TopK(cache, snap, 20)
		warm.add(float64(time.Since(t)) / 1e3)
	}
	p.m.set("qcache.topk_cold_ms_p50", cold.percentile(50), "ms")
	p.m.set("qcache.topk_warm_us_p50", warm.percentile(50), "us")

	// NewServer over an engine that already ran serves its snapshot; no
	// batch is submitted, so the apply loop stays idle.
	srv := graphbolt.NewServer(eng, graphbolt.ServerOptions{QueryCacheBytes: 8 << 20, Logger: quietLogger})
	defer srv.Close(context.Background())
	h := graphbolt.QueryHandler(srv)
	inproc := func(path string) float64 {
		var s sample
		for range probeReads {
			rr := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, path, nil)
			t := time.Now()
			h.ServeHTTP(rr, req)
			s.add(float64(time.Since(t)) / 1e3)
		}
		return s.percentile(50)
	}
	p.m.set("replica.api_value_inproc_us_p50", inproc("/v1/value/0"), "us")
	p.m.set("replica.api_topk_inproc_us_p50", inproc("/v1/topk?k=20"), "us")
	return nil
}

// core1CPU replays the same batches with one P: the single-threaded
// baseline internal/parallel is measured against.
func (p *probes) core1CPU() error {
	eng, err := p.engine(0)
	if err != nil {
		return err
	}
	eng.Run()
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var apply sample
	for _, b := range p.in.batches[:p.n] {
		t := time.Now()
		if _, err := eng.ApplyBatch(b); err != nil {
			return err
		}
		apply.add(ms(time.Since(t)))
	}
	p.m.set("core.applybatch_ms_p50_1cpu", apply.percentile(50), "ms")
	p.m.set("parallel.speedup_applybatch", apply.percentile(50)/max(p.m.value("core.applybatch_ms_p50"), 1e-9), "ratio")
	return nil
}

type noopApplier struct{}

func (noopApplier) ApplyBatch(graph.Batch) (core.Stats, error) { return core.Stats{}, nil }

// serveNoop runs the apply loop over an applier that does nothing:
// what is left is the framework's own cost per batch.
func (p *probes) serveNoop() error {
	ctx := context.Background()
	loop := serve.NewLoop(noopApplier{}, serve.Options{DisableCoalescing: true, Logger: quietLogger})
	defer loop.Close(ctx)
	b := p.in.batches[0]
	var rt sample
	for range probeNoopRounds {
		t := time.Now()
		tk, err := loop.Submit(ctx, b)
		if err != nil {
			return err
		}
		if _, err := tk.Wait(ctx); err != nil {
			return err
		}
		rt.add(float64(time.Since(t)) / 1e3)
	}
	start := time.Now()
	for range probeNoopBurst {
		if _, err := loop.Submit(ctx, b); err != nil {
			return err
		}
	}
	if err := loop.Sync(ctx); err != nil {
		return err
	}
	p.m.set("serve.noop_roundtrip_us_p50", rt.percentile(50), "us")
	p.m.set("serve.noop_submits_per_s", probeNoopBurst/time.Since(start).Seconds(), "1/s")
	return nil
}

// wal times frame encoding and appends with and without fsync.
func (p *probes) wal() error {
	dir, err := os.MkdirTemp(p.outDir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	batches := p.in.batches
	appends := min(probeAppends*p.n/probeBatches, len(batches))

	var edges, bytes int
	start := time.Now()
	for i := range appends {
		bytes += len(wal.EncodeFrame(uint64(i+1), batches[i]))
		edges += batchSize(batches[i])
	}
	p.m.set("wal.encode_ns_per_edge", float64(time.Since(start).Nanoseconds())/float64(edges), "ns")
	p.m.set("wal.bytes_per_edge", float64(bytes)/float64(edges), "B")

	for _, c := range []struct {
		metric, unit string
		sync         wal.SyncPolicy
		scale        float64
	}{
		{"wal.append_nosync_us_p50", "us", wal.SyncNone, 1e3},
		{"wal.append_fsync_ms_p50", "ms", wal.SyncEveryBatch, 1e6},
	} {
		w, err := wal.Open(filepath.Join(dir, c.metric+".wal"), wal.Options{Sync: c.sync})
		if err != nil {
			return err
		}
		var s sample
		for i := range appends {
			t := time.Now()
			if err := w.Append(uint64(i+1), batches[i]); err != nil {
				w.Close()
				return err
			}
			s.add(float64(time.Since(t)) / c.scale)
		}
		if err := w.Close(); err != nil {
			return err
		}
		p.m.set(c.metric, s.percentile(50), c.unit)
	}
	return nil
}

// durable times one checkpoint and a recovery: checkpoint load plus a
// replay of the records journaled after it.
func (p *probes) durable() error {
	dir, err := os.MkdirTemp(p.outDir, "recover-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	eng, err := p.engine(0)
	if err != nil {
		return err
	}
	d, err := graphbolt.OpenDurable(eng, dir, graphbolt.DurableOptions{})
	if err != nil {
		return err
	}
	apply := func(bs []graphbolt.Batch) error {
		for _, b := range bs {
			if _, err := d.ApplyBatch(b); err != nil {
				return err
			}
		}
		return nil
	}
	replay := p.in.batches[p.n/2 : p.n]
	err = apply(p.in.batches[:p.n/2])
	if err == nil {
		t := time.Now()
		err = d.Checkpoint()
		p.m.set("durable.checkpoint_ms", ms(time.Since(t)), "ms")
	}
	if err == nil {
		err = apply(replay)
	}
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	eng2, err := p.engine(0)
	if err != nil {
		return err
	}
	t := time.Now()
	d2, err := graphbolt.OpenDurable(eng2, dir, graphbolt.DurableOptions{})
	if err != nil {
		return err
	}
	p.m.set("durable.recovery_s", time.Since(t).Seconds(), "s")
	info := d2.Recovery()
	if err := d2.Close(); err != nil {
		return err
	}
	if !info.FromSnapshot || info.Replayed != len(replay) {
		return fmt.Errorf("recovery loaded checkpoint=%v and replayed %d records, want %d", info.FromSnapshot, info.Replayed, len(replay))
	}
	return nil
}

// replica times the leader-side log append and the follower's replay
// sink, both called directly.
func (p *probes) replica() error {
	log := replica.NewLog(replica.LogOptions{Logger: quietLogger})
	defer log.Close()
	eng, err := p.engine(0)
	if err != nil {
		return err
	}
	eng.Run()
	ap := replica.NewEngineApplier(eng)
	var appendUs, applyMs sample
	for i, b := range p.in.batches[:p.n] {
		rec := wal.Record{Seq: uint64(i + 1), Batch: b}
		t := time.Now()
		log.Append(rec)
		appendUs.add(float64(time.Since(t)) / 1e3)
		t = time.Now()
		if err := ap.ApplyRecord(rec); err != nil {
			return err
		}
		applyMs.add(ms(time.Since(t)))
	}
	p.m.set("replica.log_append_us_p50", appendUs.percentile(50), "us")
	p.m.set("replica.follower_apply_ms_p50", applyMs.percentile(50), "ms")
	return nil
}

// partition runs the same batches closed-loop through a two-shard and
// a one-shard in-memory server.
func (p *probes) partition() error {
	for _, c := range []struct {
		metric string
		shards int
	}{
		{"partition.update_ms_p50_2shards", 2},
		{"serve.update_ms_p50_1shard", 1},
	} {
		eng, err := p.engine(0)
		if err != nil {
			return err
		}
		reg := graphbolt.NewMetricsRegistry()
		srv := graphbolt.NewServer(eng, graphbolt.ServerOptions{Shards: c.shards, Metrics: reg, Logger: quietLogger})
		ctx, cancel := context.WithTimeout(context.Background(), stepTimeout)
		var s sample
		for _, b := range p.in.batches[:p.n] {
			t := time.Now()
			if _, err = srv.SubmitWait(ctx, b); err != nil {
				break
			}
			s.add(ms(time.Since(t)))
		}
		if cerr := srv.Close(ctx); err == nil {
			err = cerr
		}
		cancel()
		if err != nil {
			return fmt.Errorf("%d shards: %w", c.shards, err)
		}
		p.m.set(c.metric, s.percentile(50), "ms")
		if c.shards > 1 {
			snap := reg.Snapshot()
			cross := float64(snap.Counters["graphbolt_shard_cross_batches_total"])
			single := float64(snap.Counters["graphbolt_shard_single_batches_total"])
			p.m.set("partition.cross_shard_share", cross/max(cross+single, 1), "ratio")
		}
	}
	return nil
}

// loopbackValueUs is the median loopback latency of /v1/value reads
// sent on time, for replica.http_overhead_us_p50.
func loopbackValueUs(reads []readRec) float64 {
	var s sample
	for _, r := range reads {
		if r.endpoint == epValue && r.err == nil {
			s.add(float64(r.done.Sub(r.sent)) / 1e3)
		}
	}
	return s.percentile(50)
}
