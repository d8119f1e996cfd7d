package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/bitset"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// TestForVertices checks the contract block ownership rests on: every
// member is visited exactly once, each worker meets its vertices in
// ascending order, a block of blockVerts vertices is never split between
// workers, worker ids stay below Workers(), and a set with fewer than
// blockVerts members runs inline. n is not a multiple of 64, so the last
// word and the last block are partial.
func TestForVertices(t *testing.T) {
	const n = 1500
	if parallel.DefaultGrain%blockVerts != 0 {
		t.Fatalf("parallel.DefaultGrain %d is not whole %d-vertex blocks; parallel.For writers would share bitset words", parallel.DefaultGrain, blockVerts)
	}
	type tc struct {
		name   string
		vs     vertexSet
		want   []VertexID
		inline bool
	}
	var cases []tc
	for _, size := range []int{0, 1, 511, 512, 513, n} {
		b := bitset.New(n)
		for _, v := range rand.New(rand.NewSource(int64(size))).Perm(n)[:size] {
			b.Set(VertexID(v))
		}
		cases = append(cases, tc{fmt.Sprintf("set of %d", size), membersOf(b), b.Members(nil), size < blockVerts})
	}
	for _, m := range []int{100, n} {
		want := make([]VertexID, m)
		for v := range want {
			want[v] = VertexID(v)
		}
		cases = append(cases, tc{fmt.Sprintf("all %d", m), allVertices(m), want, m <= blockVerts})
	}

	reg := obs.NewRegistry()
	parallel.SetMetrics(reg)
	defer parallel.SetMetrics(nil)
	inlineLoops := reg.Counter("graphbolt_parallel_inline_loops_total", "")

	for _, procs := range []int{1, 2, 4, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			visits := make([]int, n)
			owner := make([]atomic.Int32, (n+blockVerts-1)/blockVerts)
			for i := range owner {
				owner[i].Store(-1)
			}
			last := make([]int, parallel.Workers())
			for w := range last {
				last[w] = -1
			}
			var bad atomic.Int64
			work := parallel.NewCounter()
			inlineBefore := inlineLoops.Value()
			forVertices(c.vs, func(worker int, v VertexID) int64 {
				if worker < 0 || worker >= parallel.Workers() {
					bad.Add(1)
					return 1
				}
				visits[v]++ // a plain write: the race detector checks ownership
				if int(v) <= last[worker] {
					bad.Add(1)
				}
				last[worker] = int(v)
				o := &owner[int(v)/blockVerts]
				if !o.CompareAndSwap(-1, int32(worker)) && o.Load() != int32(worker) {
					bad.Add(1)
				}
				return 1
			}, work)
			label := fmt.Sprintf("GOMAXPROCS %d, %s", procs, c.name)
			if bad.Load() != 0 {
				t.Errorf("%s: %d visits out of order, split across workers or with a bad worker id", label, bad.Load())
			}
			for _, v := range c.want {
				visits[v]--
			}
			for v, k := range visits {
				if k != 0 {
					t.Fatalf("%s: vertex %d visited %+d times against the set", label, v, k)
				}
			}
			if got := work.Sum(); got != int64(len(c.want)) {
				t.Errorf("%s: work %d, want %d", label, got, len(c.want))
			}
			ranInline := inlineLoops.Value() > inlineBefore
			if len(c.want) > 0 && (c.inline || procs == 1) != ranInline {
				t.Errorf("%s: ran inline = %v", label, ranInline)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
