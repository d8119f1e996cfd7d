package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// metricDef describes one end-to-end metric as BENCHMARK.json fixes it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system sees, on every
// workload. BENCHMARK.json repeats this table; a test keeps the two in
// step. The bounds are as wide as the contract allows because the
// sandbox is that noisy: README.md records the spreads measured.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"update_p50_ms", "ms", "lower", 0.25},
	{"drain_edges_per_s", "1/s", "higher", 0.25},
	{"read_p25_ms", "ms", "lower", 0.25},
	{"replica_visible_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

func endToEndNames() []string {
	names := make([]string, len(endToEnd))
	for i, d := range endToEnd {
		names[i] = d.Name
	}
	return names
}

// perLayerNames are the single-layer metrics of the traced pass, in
// the order they are printed. They have no bound.
var perLayerNames = []string{
	"e2e.update_p95_ms", "e2e.read_p50_ms", "e2e.read_p99_ms", "e2e.replica_visible_p95_ms",
	"graph.build_s", "graph.apply_ms_p50", "graph.apply_ns_per_graph_edge", "graph.apply_alloc_mb_per_batch",
	"core.initial_run_s", "core.applybatch_ms_p50", "core.refine_ms_p50", "core.refine_ns_per_edge_computation",
	"core.edge_computations_per_batch", "core.work_ratio_vs_reset", "core.refine_iterations_mean",
	"core.tracked_snapshot_mb", "core.publish_copy_ms_p50", "core.diff_ms_p50",
	"core.applybatch_ms_p50_1cpu", "parallel.speedup_applybatch", "parallel.worker_utilization_mean",
	"serve.queue_wait_ms_p50", "serve.queue_wait_ms_p95", "serve.coalesce_ms_p50", "serve.validate_ms_p50",
	"serve.apply_ms_p50", "serve.publish_ms_p50", "serve.batches_per_apply_mean_open",
	"serve.batches_per_apply_mean_drain", "serve.phase_sum_over_e2e",
	"serve.noop_roundtrip_us_p50", "serve.noop_submits_per_s",
	"wal.encode_ns_per_edge", "wal.bytes_per_edge", "wal.append_nosync_us_p50", "wal.append_fsync_ms_p50",
	"durable.journal_ms_p50", "durable.checkpoint_ms", "durable.recovery_s",
	"qcache.topk_cold_ms_p50", "qcache.topk_warm_us_p50", "qcache.hit_ratio",
	"replica.api_value_inproc_us_p50", "replica.api_topk_inproc_us_p50", "replica.http_overhead_us_p50",
	"replica.log_append_us_p50", "replica.stream_lag_ms_p50", "replica.follower_apply_ms_p50",
	"replica.lag_records_max", "replica.resumes",
	"partition.update_ms_p50_2shards", "serve.update_ms_p50_1shard", "partition.cross_shard_share",
	"trace.overhead_pct", "loadgen.write_late_ms_p99", "loadgen.read_late_ms_p99",
	"gc.pause_ms_total", "gc.cycles",
}

// printMetrics prints every named metric with its unit, then the
// sample counts behind the percentiles and any validity complaints.
func printMetrics(w io.Writer, r *runResult, names []string) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "%s (%s, seed %d, %gs): V=%v loaded E=%v batch=%v edges writes=%.4g/s reads=%.4g/s\n",
		r.Workload, pass, r.Seed, r.Seconds, r.Facts["vertices"], r.Facts["edges_loaded"],
		r.Facts["batch_edges"], r.Facts["write_rate_per_s"], r.Facts["read_rate_per_s"])
	for _, n := range names {
		if m, ok := r.Metrics[n]; ok {
			fmt.Fprintf(w, "  %-40s %14.4f %s\n", n, m.Value, m.Unit)
		}
	}
	var counts []string
	for _, k := range sortedKeys(r.Samples) {
		counts = append(counts, fmt.Sprintf("%s=%d (supports p%.1f)", k, r.Samples[k], supportedPercentile(r.Samples[k])))
	}
	fmt.Fprintf(w, "  samples: %s; attempted %d, failed %d; open %.1fs, drain %.2fs\n",
		strings.Join(counts, ", "), r.Attempted, r.Failed, r.Facts["open_s"], r.Facts["drain_s"])
	if !r.Correct {
		fmt.Fprintf(w, "  INCORRECT: %s\n", r.Failure)
	}
	for _, why := range r.Invalid {
		fmt.Fprintf(w, "  not comparable: %s\n", why)
	}
}

// hostFacts are recorded with every result file.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
}

// passes holds one workload's two runs within a set.
type passes struct {
	Untraced *runResult `json:"untraced"`
	Traced   *runResult `json:"traced"`
}

// suiteSet is one full set: every workload, untraced then traced.
type suiteSet struct {
	Order     []string           `json:"order"`
	Workloads map[string]*passes `json:"workloads"`
}

// summaryRow condenses one metric of one workload over the sets.
type summaryRow struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
	Spread float64 `json:"spread"` // (Q3−Q1)/median; (max−min)/median below four sets
	Valid  bool    `json:"valid"`  // every contributing run was correct and comparable
}

// resultFile is what the suite writes and -diff reads.
type resultFile struct {
	Host    hostFacts                        `json:"host"`
	Sets    []suiteSet                       `json:"sets"`
	Summary map[string]map[string]summaryRow `json:"summary"` // workload → metric
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runSuite runs every workload untraced and then traced, each run in a
// fresh child process of this binary (clean heap, its own VmHWM),
// repeat times over, and writes result.json.
func runSuite(seed uint64, seconds int, outDir string, repeat int, reverse bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	file := resultFile{Host: hostFacts{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: gitCommit(), Seed: seed, Seconds: seconds,
	}}
	order := make([]string, len(specs))
	for i, sp := range specs {
		order[i] = sp.Name
	}
	if reverse {
		slices.Reverse(order)
	}
	var failures []string
	for set := range repeat {
		ss := suiteSet{Order: order, Workloads: map[string]*passes{}}
		for _, name := range order {
			ss.Workloads[name] = &passes{}
		}
		for _, traced := range []bool{false, true} {
			for _, name := range order {
				traceArg := "0"
				if traced {
					traceArg = "1"
				}
				cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
					"-seconds", strconv.Itoa(seconds), "-trace", traceArg, "-out", outDir)
				cmd.Stderr = os.Stderr
				_, runErr := cmd.Output()
				var res runResult
				if err := readJSON(runFile(outDir, name, traced), &res); err != nil || runErr != nil {
					failures = append(failures, fmt.Sprintf("set %d %s traced=%v: %v", set+1, name, traced, runErr))
					if err != nil {
						continue
					}
				}
				os.Remove(runFile(outDir, name, traced))
				names := endToEndNames()
				if traced {
					ss.Workloads[name].Traced = &res
					names = perLayerNames
				} else {
					ss.Workloads[name].Untraced = &res
				}
				printMetrics(os.Stdout, &res, names)
			}
		}
		file.Sets = append(file.Sets, ss)
	}
	file.summarize()
	if repeat > 1 {
		file.printSummary(os.Stdout)
	}
	path := filepath.Join(outDir, "result.json")
	if err := writeJSON(path, file); err != nil {
		return err
	}
	fmt.Println("result file:", path)
	if len(failures) > 0 {
		return fmt.Errorf("%d runs failed:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}

// summarize fills Summary from Sets.
func (f *resultFile) summarize() {
	f.Summary = map[string]map[string]summaryRow{}
	type acc struct {
		unit  string
		vals  []float64
		valid bool
	}
	for _, sp := range specs {
		accs := map[string]*acc{}
		add := func(r *runResult, names []string) {
			if r == nil {
				return
			}
			for _, n := range names {
				m, ok := r.Metrics[n]
				if !ok {
					continue
				}
				a := accs[n]
				if a == nil {
					a = &acc{unit: m.Unit, valid: true}
					accs[n] = a
				}
				a.vals = append(a.vals, m.Value)
				a.valid = a.valid && r.Correct && r.Valid
			}
		}
		for _, set := range f.Sets {
			if p := set.Workloads[sp.Name]; p != nil {
				add(p.Untraced, endToEndNames())
				add(p.Traced, perLayerNames)
			}
		}
		rows := map[string]summaryRow{}
		for n, a := range accs {
			row := summaryRow{Unit: a.unit, N: len(a.vals), Min: slices.Min(a.vals), Median: medianOf(a.vals), Max: slices.Max(a.vals), Valid: a.valid}
			switch {
			case len(a.vals) >= 4:
				row.Spread = quartileSpread(a.vals)
			case row.Median != 0:
				row.Spread = (row.Max - row.Min) / row.Median
			}
			rows[n] = row
		}
		f.Summary[sp.Name] = rows
	}
}

func (f *resultFile) printSummary(w io.Writer) {
	fmt.Fprintf(w, "\nsummary over %d sets (spread = (Q3-Q1)/median from four sets up, (max-min)/median below)\n", len(f.Sets))
	for _, sp := range specs {
		fmt.Fprintln(w, sp.Name)
		for _, n := range append(endToEndNames(), perLayerNames...) {
			if row, ok := f.Summary[sp.Name][n]; ok {
				fmt.Fprintf(w, "  %-40s min %12.4f  median %12.4f  max %12.4f %-5s spread %6.3f\n", n, row.Min, row.Median, row.Max, row.Unit, row.Spread)
			}
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json -diff needs.
type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
}

// Verdicts of -diff.
const (
	verdictBetter     = "better"
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges new against old for one bounded metric. A side whose
// own spread exceeds the bound, or that came from an incorrect or
// non-comparable run, cannot resolve a difference of that size.
func verdict(def metricDef, old, cur summaryRow) string {
	if !old.Valid || !cur.Valid || old.N == 0 || cur.N == 0 || old.Median == 0 ||
		(old.N > 1 && old.Spread > def.Bound) || (cur.N > 1 && cur.Spread > def.Bound) {
		return verdictUnresolved
	}
	change := (cur.Median - old.Median) / old.Median
	if def.Better == "higher" {
		change = -change
	}
	switch {
	case change > def.Bound:
		return verdictWorse
	case change < -def.Bound:
		return verdictBetter
	}
	return verdictWithin
}

// diffFiles prints, per workload and metric, both medians, the bound
// from BENCHMARK.json and a verdict; it fails if any metric is worse.
func diffFiles(benchPath, oldPath, newPath string, w io.Writer) error {
	var bench benchmarkFile
	if err := readJSON(benchPath, &bench); err != nil {
		return fmt.Errorf("the bounds come from BENCHMARK.json at the repository root: %w", err)
	}
	var old, cur resultFile
	if err := readJSON(oldPath, &old); err != nil {
		return err
	}
	if err := readJSON(newPath, &cur); err != nil {
		return err
	}
	fmt.Fprintf(w, "old %s (%d sets, seed %d)  new %s (%d sets, seed %d)\n",
		old.Host.Commit, len(old.Sets), old.Host.Seed, cur.Host.Commit, len(cur.Sets), cur.Host.Seed)
	worse := 0
	for _, sp := range specs {
		fmt.Fprintln(w, sp.Name)
		for _, def := range bench.EndToEnd {
			o, c := old.Summary[sp.Name][def.Name], cur.Summary[sp.Name][def.Name]
			v := verdict(def, o, c)
			if v == verdictWorse {
				worse++
			}
			fmt.Fprintf(w, "  %-40s %12.4f -> %12.4f %-5s bound %.2f  %s\n", def.Name, o.Median, c.Median, def.Unit, def.Bound, v)
		}
		for _, n := range perLayerNames {
			o, ok1 := old.Summary[sp.Name][n]
			c, ok2 := cur.Summary[sp.Name][n]
			if ok1 && ok2 {
				fmt.Fprintf(w, "  %-40s %12.4f -> %12.4f %-5s (no bound)\n", n, o.Median, c.Median, c.Unit)
			}
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d end-to-end metrics are worse than their bound allows", worse)
	}
	return nil
}
