package main

import (
	"fmt"
	"time"

	graphbolt "repro"
)

// Read endpoints of the query API.
const (
	epValue    = "value"
	epTopK     = "topk"
	epSnapshot = "snapshot"
)

// mixEntry is one endpoint's share of a read mix, in percent.
type mixEntry struct {
	Endpoint string
	Percent  int
}

// spec is one workload: graph shape, stream, server wiring and load.
// All graphs are sparse RMAT with half the edges loaded and a quarter
// of every batch deletions (the paper's §5.1 recipe).
type spec struct {
	Name string
	Why  string

	Algo       string // "pagerank", "sssp" (source 0) or "cc"
	GraphSeed  uint64 // RMAT seed of the workload's graph
	Vertices   int
	Edges      int // generated; half are loaded, the rest stream in
	BatchEdges int

	WritePeriod  time.Duration // open phase: one batch per period
	DrainBatches int           // drain phase: batches submitted back to back, at the reference window (scaled with -seconds)

	Durable    bool // NewDurableServer with SyncEveryBatch, CheckpointEvery 0
	Replicated bool // durable leader + replication log + one in-memory follower; reads go to the follower
	CacheBytes int64

	// BurstReads is how many reads the one read connection issues back to
	// back, each sent when the previous response has been read, starting
	// gapStart into every write period; the first of them is not timed.
	BurstReads int
	Mix        []mixEntry
	// ValueVertices bounds the vertex ids /v1/value draws from: 0 means
	// all of them, 1 means the SSSP source only (unreachable vertices
	// hold +Inf, which the JSON API cannot encode).
	ValueVertices int
}

// Reference window the per-workload rates were chosen for.
const referenceSeconds = 34

var pointReads = []mixEntry{{epValue, 90}, {epSnapshot, 10}}

// Every workload keeps the apply loop busy about a third of each write
// period and reads only once the batch has long been applied (and, on
// replicated, replayed by the follower): the program's own threads
// never outnumber the two CPUs, so a run measures the program and not
// how the scheduler interleaves it with its load.
var specs = []spec{
	{
		Name:      "pr-refine",
		Why:       "PageRank refinement is ~90% of the service time: core and internal/parallel changes show here; no WAL, no follower",
		Algo:      "pagerank",
		GraphSeed: 101, Vertices: 8192, Edges: 90_000, BatchEdges: 25,
		WritePeriod: 75 * time.Millisecond, DrainBatches: 1900,
		BurstReads: 40, Mix: pointReads,
	},
	{
		Name:      "sssp-mutate",
		Why:       "SSSP refinement is small, so graph.Apply's O(V+E) rewrite, the O(V) publish copy and WAL append+fsync are the service time",
		Algo:      "sssp",
		GraphSeed: 102, Vertices: 16_384, Edges: 250_000, BatchEdges: 20,
		WritePeriod: 25 * time.Millisecond, DrainBatches: 7000,
		Durable:    true,
		BurstReads: 40, Mix: pointReads, ValueVertices: 1,
	},
	{
		Name:      "replicated",
		Why:       "The only workload where replica.Log, the wire codec, the follower apply loop and qcache-backed reads on the follower run",
		Algo:      "cc",
		GraphSeed: 103, Vertices: 16_384, Edges: 250_000, BatchEdges: 20,
		WritePeriod: 25 * time.Millisecond, DrainBatches: 7000,
		Durable: true, Replicated: true, CacheBytes: 8 << 20,
		BurstReads: 40, Mix: []mixEntry{{epValue, 75}, {epTopK, 20}, {epSnapshot, 5}},
	},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// program builds the workload's algorithm. All three are
// Engine[float64, float64].
func (s spec) program() graphbolt.Program[float64, float64] {
	switch s.Algo {
	case "pagerank":
		return graphbolt.NewPageRank()
	case "sssp":
		return graphbolt.NewSSSP(0)
	default:
		return graphbolt.NewConnectedComponents()
	}
}

// exactValues reports whether published values must equal a fresh run
// bit for bit (min-aggregations) or within the PageRank tolerance.
func (s spec) exactValues() bool { return s.Algo != "pagerank" }

// gapStart is where in each write period the read burst begins.
const gapStart = 0.6

// readsPerSecond is the offered read rate, warm-up reads included.
func (s spec) readsPerSecond() float64 {
	return float64(s.BurstReads) / s.WritePeriod.Seconds()
}
