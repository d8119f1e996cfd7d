// Checkpoint: crash-safe streaming — wrap the engine in the durable
// layer so every batch is journaled to a write-ahead log before it
// mutates memory and the engine state is checkpointed periodically.
// The example streams a few batches, "crashes" (abandons the in-memory
// engine), reopens from disk, and finishes the stream: the recovered
// run must land on the same values as a run that never crashed.
package main

import (
	"fmt"
	"log"
	"math"
	"os"

	graphbolt "repro"
)

func main() {
	s, err := graphbolt.NewRMATStream(21, 5000, 50000, graphbolt.StreamConfig{
		BatchSize:  1000,
		NumBatches: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	opts := graphbolt.Options{MaxIterations: 10}
	newEngine := func() *graphbolt.PageRankEngine {
		e, err := graphbolt.NewEngine[float64, float64](s.Base, graphbolt.NewPageRank(), opts)
		if err != nil {
			log.Fatal(err)
		}
		return e
	}

	// Reference: an in-memory run that never crashes.
	ref := newEngine()
	ref.Run()
	for _, b := range s.Batches {
		if _, err := ref.ApplyBatch(b); err != nil {
			log.Fatal(err)
		}
	}

	dir, err := os.MkdirTemp("", "graphbolt-durable")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	dopts := graphbolt.DurableOptions{CheckpointEvery: 2}

	// Durable run: OpenDurable performs the initial computation, then
	// each batch is journaled, and its result is published only once
	// the record is durable.
	d, err := graphbolt.OpenDurable(newEngine(), dir, dopts)
	if err != nil {
		log.Fatal(err)
	}
	for _, b := range s.Batches[:3] {
		if _, err := d.ApplyBatch(b); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("streamed 3 batches; graph now has %d edges\n", d.Graph().NumEdges())
	// "Crash": walk away mid-stream. The last checkpoint covers batch 2;
	// batch 3 exists only as a journal record.
	d.Close()
	fmt.Printf("simulated crash after batch 3 (state lives in %s)\n", dir)

	// Restart: recovery loads the checkpoint and replays the journal
	// suffix, then the stream continues where it left off.
	recovered, err := graphbolt.OpenDurable(newEngine(), dir, dopts)
	if err != nil {
		log.Fatal(err)
	}
	info := recovered.Recovery()
	fmt.Printf("recovered: checkpoint at batch %d + %d journal records replayed (seq %d)\n",
		info.SnapshotSeq, info.Replayed, recovered.Seq())
	for _, b := range s.Batches[recovered.Seq():] {
		if _, err := recovered.ApplyBatch(b); err != nil {
			log.Fatal(err)
		}
	}
	recovered.Close()

	worst := 0.0
	for v := range ref.Values() {
		if d := math.Abs(ref.Values()[v] - recovered.Values()[v]); d > worst {
			worst = d
		}
	}
	fmt.Printf("after finishing the stream on both: max divergence = %.3e\n", worst)
	if worst > 1e-9 {
		log.Fatal("recovered engine diverged")
	}
	fmt.Println("recovered engine matches the run that never crashed ✓")
}
