// The value golden pins bits, and Go may contract x*y+z into one fused
// multiply-add (one rounding instead of two) on every architecture that
// has the instruction: arm64, ppc64, s390x, riscv64, and amd64 built with
// GOAMD64=v3 or above. Plain amd64 (v1, v2) never fuses, so this is the
// one target the hashes are recorded for.
//go:build amd64 && !amd64.v3

package core_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/stream"
)

// hashValues is the FNV-64a hash of the bits of every value, in vertex
// order.
func hashValues[V any](vals []V) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(x float64) {
		b := math.Float64bits(x)
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	switch vs := any(vals).(type) {
	case []float64:
		for _, x := range vs {
			word(x)
		}
	case [][]float64:
		for _, v := range vs {
			for _, x := range v {
				word(x)
			}
		}
	default:
		panic(fmt.Sprintf("hashValues: unsupported value type %T", vals))
	}
	return h.Sum64()
}

// valueHashLines streams s through one engine and renders the hash of
// the values it publishes after the initial run and after each batch.
func valueHashLines[V, A any](t *testing.T, s *stream.Stream, name string, p core.Program[V, A], mode core.Mode) []string {
	t.Helper()
	eng, err := core.NewEngine[V, A](s.Base, p, core.Options{Mode: mode, MaxIterations: 10, Horizon: 6})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	lines := []string{fmt.Sprintf("%s %v run hash=%016x", name, mode, hashValues(eng.Values()))}
	for bi, b := range s.Batches {
		if _, err := eng.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("%s %v batch=%d hash=%016x", name, mode, bi, hashValues(eng.Values())))
	}
	return lines
}

// TestGoldenValueHashes pins the bits of every value every incremental
// mode publishes, for the five delta programs and a retract+propagate
// one, so that a kernel change meant to compute the same floating-point
// expressions must leave testdata/value_hashes.golden untouched. Like
// TestGoldenWorkCounters it reads the same at every GOMAXPROCS.
func TestGoldenValueHashes(t *testing.T) {
	const n = 2000
	edges := gen.RMAT(38, n, 16000, gen.WeightUniform)
	s, err := stream.FromEdges(n, edges, stream.Config{BatchSize: 120, NumBatches: 8, DeleteFraction: 0.25, Seed: 38})
	if err != nil {
		t.Fatal(err)
	}
	coem := algorithms.NewCoEM([]core.VertexID{1, 5, 9, 100}, []core.VertexID{2, 6, 200})
	lp := algorithms.NewLabelProp(3, map[core.VertexID]int{1: 0, 7: 1, 42: 2, 300: 1})
	var got []string
	for _, mode := range []core.Mode{core.ModeGraphBolt, core.ModeGraphBoltRP, core.ModeReset, core.ModeNaive} {
		got = append(got, valueHashLines[float64, float64](t, s, "PageRank", algorithms.NewPageRank(), mode)...)
		got = append(got, valueHashLines[float64, float64](t, s, "Katz", algorithms.NewKatz(), mode)...)
		got = append(got, valueHashLines[float64, algorithms.CoEMAgg](t, s, "CoEM", coem, mode)...)
		got = append(got, valueHashLines[[]float64, []float64](t, s, "LabelProp", lp, mode)...)
		got = append(got, valueHashLines[[]float64, algorithms.CFAgg](t, s, "CollabFilter", algorithms.NewCollabFilter(3), mode)...)
		got = append(got, valueHashLines[[]float64, []float64](t, s, "BeliefProp", algorithms.NewBeliefProp(3), mode)...)
	}

	path := filepath.Join("testdata", "value_hashes.golden")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v\ncurrent hashes:\n%s", err, strings.Join(got, "\n"))
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d hash lines, %s has %d", len(got), path, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("got  %s\nwant %s", got[i], want[i])
		}
	}
}
