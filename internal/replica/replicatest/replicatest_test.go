package replicatest

import (
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/core/difftest"
)

func batches(t *testing.T) int {
	if testing.Short() {
		return 30
	}
	return 100
}

// TestReplicationEquivalencePageRank: ~100 randomized batches through a
// leader while an in-memory follower tails; every acked generation's
// snapshot must match the leader's.
func TestReplicationEquivalencePageRank(t *testing.T) {
	Run[float64, float64](t,
		func() core.Program[float64, float64] { return algorithms.NewPageRank() },
		difftest.ScalarEqual(1e-7),
		Config{Seed: 1, Batches: batches(t)})
}

// TestReplicationEquivalenceSSSPDurable: exact-value equivalence for
// SSSP with a durable follower (re-journaling every record) and leader
// checkpoints firing mid-stream — proving the replication log survives
// WAL truncation.
func TestReplicationEquivalenceSSSPDurable(t *testing.T) {
	Run[float64, float64](t,
		func() core.Program[float64, float64] { return algorithms.NewSSSP(0) },
		difftest.ScalarEqual(0),
		Config{Seed: 2, Batches: batches(t), MaxIterations: 512, DurableFollower: true, CheckpointEvery: 7})
}

// TestReplicationEquivalenceConnectedComponents: a third program shape
// (min-label propagation) over a different seed.
func TestReplicationEquivalenceConnectedComponents(t *testing.T) {
	Run[float64, float64](t,
		func() core.Program[float64, float64] { return algorithms.NewConnectedComponents() },
		difftest.ScalarEqual(0),
		Config{Seed: 3, Batches: batches(t), MaxIterations: 256})
}
