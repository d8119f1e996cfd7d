package partition

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Applier is sharded serving as one serve.Applier: a single serve.Loop
// queues, validates, coalesces and supervises exactly as it does for
// one engine, and each ApplyBatch call fans the batch out over the
// per-shard engines and joins them before returning. The join is the
// cross-shard generation barrier — no shard starts batch k+1 until
// every shard finished batch k — so the merged view never exposes a
// partially applied batch and publishes exactly one generation per
// apply call, like a single engine.
//
// Failure domains are the loop's, server-wide: a poison batch is
// quarantined at dequeue before any shard sees it, a storage fault on
// one shard degrades the server until Recover clears it, and a
// terminal shard failure (named in the error) fails the loop.
//
// ApplyBatch, Ailment and Recover are single-writer (the loop's apply
// goroutine); View and ShardStatus are safe from any goroutine.
type Applier[V, A any] struct {
	pt         *Partitioner
	engines    []*core.Engine[V, A]
	targets    []serve.Applier
	recoverers []serve.Recoverer // nil where targets[s] cannot self-heal
	view       *core.MultiView[V, A]
	union      *graph.Graph
	met        shardMetrics

	// Replay marks. When a shard fails part-way through a batch the loop
	// holds the batch, retries Recover, and replays it; landed[s] records
	// that shard s already applied its share, so the replay skips it and
	// no shard applies (or journals) a sub-batch twice. heldStats carries
	// the landed shards' work into the replay's total. The marks cannot
	// go stale: ApplyBatch refuses outright while any shard ails, and
	// the first call after a successful Recover is the held batch.
	landed    []bool
	heldStats core.Stats

	mu     sync.Mutex // guards status, for ShardStatus readers on other goroutines
	status []shardStatus
}

type shardStatus struct {
	applied uint64
	ailment error
}

// NewApplier builds the fan-out applier over per-shard engines.
// engines[s] must be built over shard s's edge subset with the full
// vertex numbering (SplitGraph). targets supplies the per-shard mutation
// targets (durable wrappers around the same engines); nil means the
// engines themselves. Engines that have not run yet get their initial
// computation here, in parallel, and the first merged snapshot is
// published before NewApplier returns. reg receives the
// graphbolt_shard_* series; nil disables them.
func NewApplier[V, A any](pt *Partitioner, engines []*core.Engine[V, A], targets []serve.Applier, reg *obs.Registry) (*Applier[V, A], error) {
	n := pt.Shards()
	if len(engines) != n {
		return nil, fmt.Errorf("partition: %d engines for %d shards", len(engines), n)
	}
	if targets == nil {
		targets = make([]serve.Applier, n)
		for s, e := range engines {
			targets[s] = e
		}
	}
	if len(targets) != n {
		return nil, fmt.Errorf("partition: %d appliers for %d shards", len(targets), n)
	}

	var wg sync.WaitGroup
	for _, e := range engines {
		if e.Snapshot() == nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.Run()
			}()
		}
	}
	wg.Wait()

	graphs := make([]*graph.Graph, n)
	for s, e := range engines {
		graphs[s] = e.Graph()
	}
	union, err := UnionGraph(graphs)
	if err != nil {
		return nil, err
	}
	view, err := core.NewMultiView(engines, pt.Owner, engines[0].RetainDepth())
	if err != nil {
		return nil, err
	}
	a := &Applier[V, A]{
		pt:         pt,
		engines:    engines,
		targets:    targets,
		recoverers: make([]serve.Recoverer, n),
		view:       view,
		union:      union,
		met:        newShardMetrics(reg),
		landed:     make([]bool, n),
		status:     make([]shardStatus, n),
	}
	for s, t := range targets {
		a.recoverers[s], _ = t.(serve.Recoverer)
	}
	a.met.shardCount.Set(float64(n))
	a.publish(union)
	return a, nil
}

// View returns the merged multi-shard read view.
func (a *Applier[V, A]) View() *core.MultiView[V, A] { return a.view }

// Shards returns the shard count.
func (a *Applier[V, A]) Shards() int { return a.pt.Shards() }

// ShardStatus reports how many sub-batches shard s has applied and the
// storage fault it is currently blocked on (nil when healthy).
func (a *Applier[V, A]) ShardStatus(s int) (applied uint64, ailment error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.status[s].applied, a.status[s].ailment
}

// ApplyBatch splits b by edge owner, applies the sub-batches to their
// shards concurrently while folding b into the union graph, joins, and
// publishes one merged snapshot. A shard b does not touch is left
// alone; an empty batch still publishes a generation. On a shard
// failure nothing is published and the error names the shard; shards
// that already applied are marked so the loop's replay after Recover
// completes the batch without repeating them.
func (a *Applier[V, A]) ApplyBatch(b graph.Batch) (core.Stats, error) {
	if err := a.Ailment(); err != nil {
		return core.Stats{}, err
	}
	if err := b.Validate(); err != nil {
		return core.Stats{}, fmt.Errorf("partition: %w", err)
	}
	subs := a.pt.Split(b)
	touched := 0
	var run []int
	for s, sb := range subs {
		if len(sb.Add)+len(sb.Del) == 0 {
			continue
		}
		touched++
		if !a.landed[s] {
			run = append(run, s)
		}
	}
	stats := make([]core.Stats, len(subs))
	errs := make([]error, len(subs))
	var wg sync.WaitGroup
	for _, s := range run {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[s], errs[s] = a.targets[s].ApplyBatch(subs[s])
		}()
	}
	// The union fold only reads the previous union graph, so it runs
	// beside the shard applies and is installed only if they all land.
	// (Measured under the repo benchmark's probe, two CPUs: rewrite-bound
	// SSSP batches 6.1 -> 3.9 ms against folding after the join,
	// refinement-bound PageRank batches unchanged at 7.4-7.6 ms.)
	union := a.union
	if len(b.Add)+len(b.Del) > 0 {
		union, _ = union.Apply(b)
	}
	wg.Wait() // the cross-shard generation barrier

	var failed error
	a.mu.Lock()
	for _, s := range run {
		if errs[s] != nil {
			if failed == nil {
				failed = fmt.Errorf("partition: shard %d: %w", s, errs[s])
			}
			continue
		}
		a.landed[s] = true
		a.heldStats.Add(stats[s])
		a.status[s].applied++
	}
	a.mirrorAilmentsLocked()
	a.mu.Unlock()
	if failed != nil {
		return core.Stats{}, failed
	}
	st := a.heldStats
	a.heldStats = core.Stats{}
	clear(a.landed)
	a.publish(union)
	if touched > 1 {
		a.met.crossBatches.Inc()
	} else {
		a.met.singleBatches.Inc()
	}
	return st, nil
}

// publish installs union and publishes the merged snapshot over every
// shard's current snapshot.
func (a *Applier[V, A]) publish(union *graph.Graph) {
	a.union = union
	parts := make([]*core.ResultSnapshot[V], len(a.engines))
	for s, e := range a.engines {
		parts[s] = e.Snapshot()
	}
	a.met.mergedGen.Set(float64(a.view.PublishMerged(union, parts).Generation))
}

// mirrorAilmentsLocked copies every shard's current ailment into the
// status mirror ShardStatus reads. a.mu must be held.
func (a *Applier[V, A]) mirrorAilmentsLocked() {
	for s, r := range a.recoverers {
		if r != nil {
			a.status[s].ailment = r.Ailment()
		}
	}
}

// Ailment reports the first ailing shard's storage fault, nil when
// every shard accepts writes. Part of serve.Recoverer.
func (a *Applier[V, A]) Ailment() error {
	for s, r := range a.recoverers {
		if r == nil {
			continue
		}
		if err := r.Ailment(); err != nil {
			return fmt.Errorf("partition: shard %d: %w", s, err)
		}
	}
	return nil
}

// Recover asks every ailing shard to repair itself, returning the first
// failure. Part of serve.Recoverer.
func (a *Applier[V, A]) Recover() error {
	var first error
	for s, r := range a.recoverers {
		if r == nil || r.Ailment() == nil {
			continue
		}
		if err := r.Recover(); err != nil && first == nil {
			first = fmt.Errorf("partition: shard %d: %w", s, err)
		}
	}
	a.mu.Lock()
	a.mirrorAilmentsLocked()
	a.mu.Unlock()
	return first
}
