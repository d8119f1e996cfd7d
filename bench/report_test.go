package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	var b benchmarkJSON
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json and the tables in this package name the same
// workloads and metrics, in the same order.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds != referenceSeconds {
		t.Errorf("run_seconds = %d, the rates were chosen for %d", b.RunSeconds, referenceSeconds)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), specs has %q (%q)", i, w.Name, w.Why, specs[i].Name, specs[i].Why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the table", len(b.EndToEnd), len(endToEnd))
	}
	setupBound := 0.0
	for i, d := range b.EndToEnd {
		if d != endToEnd[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the table has %+v", i, d, endToEnd[i])
		}
		if d.Name == "setup_s" {
			setupBound = d.Bound
		}
	}
	for _, d := range b.EndToEnd {
		if d.Bound > setupBound || d.Bound > 0.25 {
			t.Errorf("%s: bound %v exceeds setup_s's %v or the 0.25 cap", d.Name, d.Bound, setupBound)
		}
	}
	if len(b.PerLayer) != len(perLayerNames) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the table", len(b.PerLayer), len(perLayerNames))
	}
	for i, p := range b.PerLayer {
		if p.Name != perLayerNames[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s, the table has %s", i, p.Name, perLayerNames[i])
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "update_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "drain_edges_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	row := func(median, spread float64, n int, valid bool) summaryRow {
		return summaryRow{N: n, Median: median, Spread: spread, Valid: valid}
	}
	for _, c := range []struct {
		name     string
		def      metricDef
		old, cur summaryRow
		want     string
	}{
		{"slower by more than the bound", lower, row(100, 0, 1, true), row(111, 0, 1, true), verdictWorse},
		{"slower within the bound", lower, row(100, 0, 1, true), row(109, 0, 1, true), verdictWithin},
		{"faster by more than the bound", lower, row(100, 0, 1, true), row(89, 0, 1, true), verdictBetter},
		{"throughput down is worse", higher, row(100, 0, 1, true), row(89, 0, 1, true), verdictWorse},
		{"throughput up is better", higher, row(100, 0, 1, true), row(111, 0, 1, true), verdictBetter},
		{"spread wider than the bound", lower, row(100, 0.11, 5, true), row(150, 0.01, 5, true), verdictUnresolved},
		{"a run that was not comparable", lower, row(100, 0, 1, true), row(150, 0, 1, false), verdictUnresolved},
		{"metric missing on one side", lower, row(100, 0, 1, true), summaryRow{}, verdictUnresolved},
	} {
		if got := verdict(c.def, c.old, c.cur); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// resultWith builds a one-set result file whose every workload reports
// update_p50_ms = ms.
func resultWith(ms float64) resultFile {
	f := resultFile{Sets: []suiteSet{{Workloads: map[string]*passes{}}}}
	for _, sp := range specs {
		f.Sets[0].Workloads[sp.Name] = &passes{Untraced: &runResult{
			Workload: sp.Name, Correct: true, Valid: true,
			Metrics: metricSet{"update_p50_ms": {Value: ms, Unit: "ms"}},
		}}
	}
	f.summarize()
	return f
}

func TestDiffFailsOnlyWhenWorse(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f resultFile) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("base.json", resultWith(20)), write("same.json", resultWith(21)), write("slow.json", resultWith(30))
	bench := filepath.Join("..", "BENCHMARK.json")

	var out bytes.Buffer
	if err := diffFiles(bench, base, same, &out); err != nil {
		t.Errorf("diff within the bound failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), verdictWithin) {
		t.Errorf("diff output names no %q verdict:\n%s", verdictWithin, out.String())
	}
	out.Reset()
	err := diffFiles(bench, base, slow, &out)
	if err == nil || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("diff of a 50%% slower run: err = %v, output:\n%s", err, out.String())
	}
}

func TestSummarizeSpread(t *testing.T) {
	f := resultFile{}
	for _, v := range []float64{10, 12, 11, 13} {
		set := suiteSet{Workloads: map[string]*passes{"pr-refine": {Untraced: &runResult{
			Correct: true, Valid: true, Metrics: metricSet{"setup_s": {Value: v, Unit: "s"}},
		}}}}
		f.Sets = append(f.Sets, set)
	}
	f.summarize()
	row := f.Summary["pr-refine"]["setup_s"]
	if row.N != 4 || row.Min != 10 || row.Max != 13 || row.Median != 11.5 || !row.Valid {
		t.Errorf("summary row = %+v", row)
	}
	if want := quartileSpread([]float64{10, 12, 11, 13}); row.Spread != want {
		t.Errorf("spread = %v, want %v", row.Spread, want)
	}
}
