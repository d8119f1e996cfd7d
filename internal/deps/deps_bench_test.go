package deps

import (
	"testing"

	"repro/internal/parallel"
)

// BenchmarkAppendScalar overwrites scalar entries, as refinement does,
// with an identity clone and with the nil clone the engine passes for a
// pointer-free aggregate.
func BenchmarkAppendScalar(b *testing.B) {
	for _, bc := range []struct {
		name  string
		clone func(float64) float64
	}{
		{"clone", func(a float64) float64 { return a }},
		{"assign", nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := New[float64](1024, 10, bc.clone, func(float64) int { return 8 }, func() float64 { return 0 })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := uint32(i % 1024)
				level := i/1024%10 + 1
				s.Append(v, level, float64(i))
			}
		})
	}
}

func BenchmarkLookup(b *testing.B) {
	s := newFloatStore(1024, 10)
	for v := uint32(0); v < 1024; v++ {
		for lvl := 1; lvl <= 10; lvl++ {
			s.Append(v, lvl, float64(lvl))
		}
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		a, _ := s.Lookup(uint32(i%1024), i%12+1)
		sink += a
	}
	_ = sink
}

func BenchmarkAppendVector(b *testing.B) {
	s := New[[]float64](1024, 10,
		func(a []float64) []float64 { return append([]float64(nil), a...) },
		func(a []float64) int { return 8 * len(a) },
		func() []float64 { return make([]float64, 3) },
	)
	vec := []float64{1, 2, 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Append(uint32(i%1024), i/1024%10+1, vec)
	}
}

// BenchmarkAppendBlocks records ten levels for 2^16 vertices the way the
// engine's initial run does: one parallel loop per level, each worker
// claiming whole 512-vertex blocks. Run it with -cpu 1,2 to see what the
// second core buys; ns/entry is the time per stored entry.
func BenchmarkAppendBlocks(b *testing.B) {
	const n, levels = 1 << 16, 10
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New[float64](n, levels, nil, func(float64) int { return 8 }, func() float64 { return 0 })
		for level := 1; level <= levels; level++ {
			parallel.ForWorker(n, 1<<blockShift, func(_, lo, hi int) {
				for v := lo; v < hi; v++ {
					s.Append(uint32(v), level, float64(level))
				}
			})
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*levels), "ns/entry")
}
