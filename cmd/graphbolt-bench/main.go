// Command graphbolt-bench regenerates the paper's evaluation tables and
// figures (§5) on scaled synthetic workloads. Run with -list to see the
// available experiments, -exp all for the full suite.
//
// Usage:
//
//	graphbolt-bench -exp table5 -scale 1.0
//	graphbolt-bench -exp all -scale 0.25 -iterations 10
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/exps"
)

func main() {
	var (
		expName    = flag.String("exp", "all", "experiment name (see -list) or 'all'")
		scale      = flag.Float64("scale", 1.0, "workload scale factor")
		iterations = flag.Int("iterations", 10, "BSP iterations per run (the paper uses 10)")
		seed       = flag.Uint64("seed", 42, "generator seed")
		list       = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range exps.All() {
			fmt.Printf("%-10s %s\n", e.Name, e.Desc)
		}
		return
	}

	cfg := exps.Config{
		Scale:      *scale,
		Iterations: *iterations,
		Seed:       *seed,
		Out:        os.Stdout,
	}

	run := func(e exps.Experiment) {
		fmt.Printf("=== %s: %s ===\n", e.Name, e.Desc)
		start := time.Now()
		if err := e.Run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s took %v)\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}

	if *expName == "all" {
		for _, e := range exps.All() {
			run(e)
		}
	} else if e, ok := exps.ByName(*expName); ok {
		run(e)
	} else {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; available: %v\n", *expName, exps.Names())
		os.Exit(2)
	}
}
