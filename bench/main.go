// Command bench is the repository's benchmark: three streaming
// workloads driven through graphbolt.Server and the HTTP query API,
// measured end to end untraced and layer by layer in a traced pass.
//
//	go run ./bench                              every workload, untraced then traced
//	go run ./bench -workload W -trace 0|1       one run (what the driver calls)
//	go run ./bench -repeat N                    N full sets, with spreads
//	go run ./bench -diff old.json new.json      compare two result files
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in-process and print a one-line JSON result last")
		seed     = flag.Uint64("seed", 1, "stream seed: the same seed gives the same graph and batches")
		seconds  = flag.Int("seconds", referenceSeconds, "measuring window of one run, in seconds")
		trace    = flag.Int("trace", 0, "with -workload: 1 runs the traced pass and reports the per-layer metrics")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory for result files, traces and scratch state")
		repeat   = flag.Int("repeat", 1, "number of full sets to run")
		reverse  = flag.Bool("reverse", false, "run the workloads in reverse order")
		diff     = flag.Bool("diff", false, "compare two result files: -diff old.json new.json")
		spinCPU  = flag.Int("keepawake", -1, "internal: spin on this CPU under SCHED_IDLE until standard input closes")
	)
	flag.Parse()
	if *spinCPU >= 0 {
		fmt.Fprintln(os.Stderr, "bench:", spin(*spinCPU))
		os.Exit(1)
	}
	if err := run(*workload, *seed, *seconds, *trace, *outDir, *repeat, *reverse, *diff, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds, trace int, outDir string, repeat int, reverse, diff bool, args []string) error {
	switch {
	case diff:
		if len(args) != 2 {
			return fmt.Errorf("-diff takes two result files")
		}
		return diffFiles("BENCHMARK.json", args[0], args[1], os.Stdout)
	case seconds < 1 || repeat < 1 || trace < 0 || trace > 1:
		return fmt.Errorf("-seconds and -repeat must be at least 1, -trace 0 or 1")
	case workload != "":
		return runOne(workload, seed, seconds, trace == 1, outDir)
	default:
		return runSuite(seed, seconds, outDir, repeat, reverse)
	}
}

// runOne is the driver's entry point: one workload, one pass. The full
// result goes to a file for the suite to collect; the last line of
// standard output is the one-object summary the driver parses. A run
// whose outputs are wrong exits non-zero after printing it.
func runOne(workload string, seed uint64, seconds int, traced bool, outDir string) error {
	sp, err := findSpec(workload)
	if err != nil {
		return err
	}
	stop, err := keepAwake()
	if err != nil {
		return fmt.Errorf("start the keep-awake spinners: %w", err)
	}
	res, err := runWorkload(runConfig{sp: sp, seed: seed, seconds: float64(seconds), traced: traced, outDir: outDir})
	stop()
	if err != nil {
		return err
	}
	names := endToEndNames()
	if traced {
		names = perLayerNames
	}
	printMetrics(os.Stdout, res, names)
	if err := writeJSON(runFile(outDir, workload, traced), res); err != nil {
		return err
	}
	line := struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metricSet{}}
	for _, n := range names {
		m, ok := res.Metrics[n]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", workload, n)
		}
		line.Metrics[n] = m
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return fmt.Errorf("%s: correctness gate failed: %s", workload, res.Failure)
	}
	return nil
}

func runFile(outDir, workload string, traced bool) string {
	pass := "untraced"
	if traced {
		pass = "traced"
	}
	return filepath.Join(outDir, "run-"+workload+"-"+pass+".json")
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
