package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/flight"
	"repro/internal/obs"
)

// Mode selects the execution strategy, mirroring the systems compared in
// the paper's evaluation (§5.1).
type Mode int

const (
	// ModeGraphBolt is dependency-driven incremental processing: the
	// initial run tracks aggregation values, mutations trigger value
	// refinement (§3.3) followed by hybrid execution past the pruning
	// horizon (§4.2).
	ModeGraphBolt Mode = iota

	// ModeGraphBoltRP is ModeGraphBolt with transitive updates issued as
	// an explicit retract + propagate pair even when the program offers
	// a single-pass delta — the GraphBolt-RP configuration of Fig. 8.
	ModeGraphBoltRP

	// ModeReset is the GB-Reset baseline: delta-based selective
	// scheduling during processing, but computation restarts from
	// initial values on every mutation. No dependency tracking.
	ModeReset

	// ModeLigra is the Ligra baseline: full synchronous recomputation —
	// every iteration re-aggregates every vertex over all in-edges, and
	// mutations restart the computation.
	ModeLigra

	// ModeNaive directly reuses converged values across mutations
	// without refinement, converging to the incorrect S*(G^T, R_G) of
	// §2.2 — the error baseline of Table 1 and Fig. 2.
	ModeNaive
)

// String names the mode as the paper does.
func (m Mode) String() string {
	switch m {
	case ModeGraphBolt:
		return "GraphBolt"
	case ModeGraphBoltRP:
		return "GraphBolt-RP"
	case ModeReset:
		return "GB-Reset"
	case ModeLigra:
		return "Ligra"
	case ModeNaive:
		return "Naive"
	default:
		return "Unknown"
	}
}

// ParseMode is the inverse of Mode.String: it accepts the paper's names
// (case-insensitively) plus the CLI short forms ("reset", "rp").
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "graphbolt":
		return ModeGraphBolt, nil
	case "graphbolt-rp", "rp":
		return ModeGraphBoltRP, nil
	case "gb-reset", "reset":
		return ModeReset, nil
	case "ligra":
		return ModeLigra, nil
	case "naive":
		return ModeNaive, nil
	default:
		return 0, fmt.Errorf("core: unknown mode %q", s)
	}
}

// Options configures an Engine.
type Options struct {
	// Mode selects the execution strategy. Default ModeGraphBolt.
	Mode Mode

	// MaxIterations bounds every run (initial, post-mutation). The
	// paper's evaluation uses 10. Default 10.
	MaxIterations int

	// Horizon is the horizontal-pruning cut-off: aggregation values are
	// tracked for iterations 1..Horizon only; beyond it the engine
	// switches to hybrid execution. 0 means MaxIterations (no
	// horizontal pruning).
	Horizon int

	// DisableVerticalPruning stores an aggregate snapshot for every
	// vertex at every tracked iteration instead of only while the
	// aggregate keeps changing. Costs memory, changes no results.
	DisableVerticalPruning bool

	// Retain keeps the last Retain published generations addressable via
	// SnapshotAt for time-travel reads and cross-generation diffing.
	// Snapshots are immutable, so retention costs only the held value
	// copies (one O(V) slice per generation) and never synchronization.
	// 0 or 1 means only the newest generation is reachable (no history
	// ring). Not part of checkpointed state: retention is a serving
	// concern, not an execution-semantics one.
	Retain int

	// Metrics, when non-nil, receives engine instrumentation (run/batch
	// counters, refine-vs-hybrid edge computations, tracked-snapshot
	// gauges, duration histograms). Nil means instrumentation is off and
	// costs only nil checks. Not part of checkpointed state.
	Metrics *obs.Registry

	// Flight, when non-nil, receives the engine's phase events ("run",
	// "apply_batch", and within it "graph_apply", "refine", "hybrid") as
	// KindPhase entries stamped with the batch on the apply path. Not
	// part of checkpointed state.
	Flight *flight.Recorder
}

func (o Options) withDefaults() Options {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 10
	}
	if o.Horizon <= 0 || o.Horizon > o.MaxIterations {
		o.Horizon = o.MaxIterations
	}
	return o
}

// Stats reports the work one engine call performed. Edge computations
// are the unit Figure 6 and Table 7 report: one Propagate, Retract,
// delta or pull visit per edge counts 1 (a retract+propagate pair
// counts 2, as in GraphBolt-RP).
type Stats struct {
	Iterations         int
	EdgeComputations   int64
	VertexComputations int64
	RefineIterations   int

	// HybridIterations counts the delta-BSP iterations executed past the
	// pruning horizon during refinement (the §4.2 hybrid continuation);
	// always ≤ Iterations, and 0 outside the GraphBolt modes.
	HybridIterations int

	// TrackedSnapshotBytes is the dependency store's heap footprint when
	// the call finished — a point-in-time gauge (§3.2's pruning target),
	// not a per-call sum.
	TrackedSnapshotBytes int64

	Duration time.Duration
}

// Add accumulates other into s. Work fields sum; TrackedSnapshotBytes
// is a gauge, so the most recent non-zero observation wins.
//
// TestStatsAddCoversEveryField fails if a field is added here without a
// matching line below.
func (s *Stats) Add(other Stats) {
	s.Iterations += other.Iterations
	s.EdgeComputations += other.EdgeComputations
	s.VertexComputations += other.VertexComputations
	s.RefineIterations += other.RefineIterations
	s.HybridIterations += other.HybridIterations
	if other.TrackedSnapshotBytes != 0 {
		s.TrackedSnapshotBytes = other.TrackedSnapshotBytes
	}
	s.Duration += other.Duration
}
