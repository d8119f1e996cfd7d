package deps

import (
	"testing"
	"testing/quick"
)

func newFloatStore(n, horizon int) *Store[float64] {
	return New[float64](n, horizon,
		func(a float64) float64 { return a },
		func(float64) int { return 8 },
		func() float64 { return 0 },
	)
}

func TestEmptyLookup(t *testing.T) {
	s := newFloatStore(4, 10)
	if _, ok := s.Lookup(2, 1); ok {
		t.Fatal("empty history reported ok")
	}
	if s.Last(2) != 0 {
		t.Fatal("Last of empty history not 0")
	}
}

func TestAppendAndLookup(t *testing.T) {
	s := newFloatStore(2, 10)
	s.Append(0, 1, 1.5)
	s.Append(0, 2, 2.5)
	if a, ok := s.Lookup(0, 1); !ok || a != 1.5 {
		t.Fatalf("level1 = %v,%v", a, ok)
	}
	if a, _ := s.Lookup(0, 2); a != 2.5 {
		t.Fatalf("level2 = %v", a)
	}
	// Past-last lookup returns stabilized value.
	if a, _ := s.Lookup(0, 7); a != 2.5 {
		t.Fatalf("level7 = %v, want stabilized 2.5", a)
	}
	if s.Last(0) != 2 {
		t.Fatalf("Last = %d", s.Last(0))
	}
}

func TestNoHolesGapFill(t *testing.T) {
	s := newFloatStore(1, 10)
	s.Append(0, 1, 1.0)
	s.Append(0, 4, 4.0) // skipped 2,3: filled with copies of level 1
	if s.Last(0) != 4 {
		t.Fatalf("Last = %d, want 4", s.Last(0))
	}
	for _, lv := range []int{2, 3} {
		if a, _ := s.Lookup(0, lv); a != 1.0 {
			t.Fatalf("gap level %d = %v, want 1.0", lv, a)
		}
	}
}

func TestGapFillFromEmptyUsesIdentity(t *testing.T) {
	s := newFloatStore(1, 10)
	s.Append(0, 3, 9.0)
	if a, _ := s.Lookup(0, 1); a != 0 {
		t.Fatalf("level1 = %v, want identity 0", a)
	}
	if a, _ := s.Lookup(0, 3); a != 9.0 {
		t.Fatalf("level3 = %v", a)
	}
}

func TestOverwrite(t *testing.T) {
	s := newFloatStore(1, 10)
	s.Append(0, 1, 1.0)
	s.Append(0, 2, 2.0)
	s.Append(0, 1, 10.0) // refinement overwrite
	if a, _ := s.Lookup(0, 1); a != 10.0 {
		t.Fatalf("overwritten level1 = %v", a)
	}
	if a, _ := s.Lookup(0, 2); a != 2.0 {
		t.Fatalf("level2 disturbed: %v", a)
	}
}

func TestHorizontalPruning(t *testing.T) {
	s := newFloatStore(1, 2)
	s.Append(0, 1, 1.0)
	s.Append(0, 2, 2.0)
	s.Append(0, 3, 3.0) // beyond horizon: dropped
	if s.Last(0) != 2 {
		t.Fatalf("Last = %d, want 2 (horizon)", s.Last(0))
	}
	if a, _ := s.Lookup(0, 3); a != 2.0 {
		t.Fatalf("lookup past horizon = %v, want 2.0", a)
	}
}

func TestGrow(t *testing.T) {
	s := newFloatStore(2, 5)
	s.Append(0, 1, 1.0)
	s.Grow(5)
	if _, ok := s.Lookup(4, 1); ok {
		t.Fatal("grown vertex has history")
	}
	if a, ok := s.Lookup(0, 1); !ok || a != 1.0 {
		t.Fatalf("Grow lost history: %v, %v", a, ok)
	}
}

func TestHeapBytesAccounting(t *testing.T) {
	s := newFloatStore(3, 10)
	base := s.HeapBytes()
	s.Append(0, 1, 1.0)
	s.Append(0, 2, 2.0)
	if got := s.HeapBytes() - base; got != 16 {
		t.Fatalf("bytes delta = %d, want 16", got)
	}
	s.Append(0, 1, 5.0) // overwrite: same size
	if got := s.HeapBytes() - base; got != 16 {
		t.Fatalf("bytes after overwrite = %d, want 16", got)
	}
}

// TestHeapBytesExactThroughResizingOverwrites: overwrites that grow,
// shrink and keep an aggregate's size leave HeapBytes equal to the sum
// over what the store holds.
func TestHeapBytesExactThroughResizingOverwrites(t *testing.T) {
	size := func(a []float64) int { return 24 + 8*len(a) }
	s := New[[]float64](2, 10,
		func(a []float64) []float64 { return append([]float64(nil), a...) },
		size,
		func() []float64 { return nil },
	)
	base := s.HeapBytes()
	s.Append(0, 1, make([]float64, 2))
	s.Append(0, 3, make([]float64, 3)) // gap-fills level 2 with a copy of level 1
	s.Append(1, 1, make([]float64, 1))
	for _, w := range []struct {
		v     uint32
		level int
		n     int
	}{{0, 1, 5}, {0, 2, 0}, {0, 2, 0}, {1, 1, 4}, {0, 3, 3}, {1, 1, 1}, {0, 1, 2}} {
		s.Append(w.v, w.level, make([]float64, w.n))
		want := int64(0)
		for v := uint32(0); v < 2; v++ {
			for lv := 1; lv <= s.Last(v); lv++ {
				a, _ := s.Lookup(v, lv)
				want += int64(size(a))
			}
		}
		if got := s.HeapBytes() - base; got != want {
			t.Fatalf("after overwriting vertex %d level %d with %d entries: HeapBytes %d, want %d", w.v, w.level, w.n, got, want)
		}
	}
}

func TestSliceAggregatesAreCloned(t *testing.T) {
	s := New[[]float64](1, 10,
		func(a []float64) []float64 { return append([]float64(nil), a...) },
		func(a []float64) int { return 8 * len(a) },
		func() []float64 { return []float64{0, 0} },
	)
	buf := []float64{1, 2}
	s.Append(0, 1, buf)
	buf[0] = 99 // mutate caller's buffer
	if a, _ := s.Lookup(0, 1); a[0] != 1 {
		t.Fatalf("store aliased caller buffer: %v", a)
	}
}

// Property: for any append sequence at increasing levels, lookups always
// return the value of the greatest appended level ≤ query level.
func TestQuickLookupSemantics(t *testing.T) {
	f := func(levelsRaw []uint8) bool {
		s := newFloatStore(1, 64)
		type entry struct {
			level int
			val   float64
		}
		var entries []entry
		last := 0
		for i, raw := range levelsRaw {
			lv := last + 1 + int(raw)%3
			if lv > 64 {
				break
			}
			val := float64(i + 1)
			s.Append(0, lv, val)
			entries = append(entries, entry{lv, val})
			last = lv
		}
		for q := 1; q <= 64; q++ {
			want := 0.0 // identity until first entry's fill base
			found := false
			for _, e := range entries {
				if e.level <= q {
					want = e.val
					found = true
				}
			}
			got, ok := s.Lookup(0, q)
			if len(entries) == 0 {
				if ok {
					return false
				}
				continue
			}
			if !ok {
				return false
			}
			if !found {
				// Query below the first appended level: gap-filled with
				// the previous value, which is identity (0) only when the
				// first entry had a gap below it.
				if entries[0].level == 1 {
					// impossible: q >= 1 and entries[0].level == 1 means found
					return false
				}
				want = 0
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	s := newFloatStore(3, 5)
	s.Append(0, 1, 1.0)
	s.Append(0, 2, 2.0)
	s.Append(2, 3, 9.0)
	exported := s.Export()

	s2 := newFloatStore(0, 5)
	s2.Import(exported)
	if len(s2.hist) != 3 {
		t.Fatalf("vertices = %d", len(s2.hist))
	}
	if a, _ := s2.Lookup(0, 2); a != 2.0 {
		t.Fatalf("lookup(0,2) = %v", a)
	}
	if a, _ := s2.Lookup(2, 3); a != 9.0 {
		t.Fatalf("lookup(2,3) = %v", a)
	}
	if _, ok := s2.Lookup(1, 1); ok {
		t.Fatal("vertex 1 should be empty")
	}
	if s2.HeapBytes() == 0 {
		t.Fatal("imported store reports zero bytes")
	}
	// Export must not alias store internals.
	exported[0][0] = 99
	if a, _ := s.Lookup(0, 1); a != 1.0 {
		t.Fatal("export aliased store")
	}
}

func TestImportTruncatesBeyondHorizon(t *testing.T) {
	s := newFloatStore(1, 2)
	s.Import([][]float64{{1, 2, 3, 4}})
	if s.Last(0) != 2 {
		t.Fatalf("Last = %d, want horizon 2", s.Last(0))
	}
}

// TestNilCloneMatchesIdentityClone: for a pointer-free aggregate a nil
// clone (copy by assignment, no footprint re-read on overwrite) keeps the
// same histories, entries and footprint as an explicit identity clone,
// through gap fills, overwrites and an export/import round trip.
func TestNilCloneMatchesIdentityClone(t *testing.T) {
	f := func(ops []struct {
		V     uint8
		Level uint8
		Agg   float64
	}) bool {
		withClone := newFloatStore(4, 6)
		nilClone := New[float64](4, 6, nil, func(float64) int { return 8 }, func() float64 { return 0 })
		for _, op := range ops {
			v, level := uint32(op.V%4), 1+int(op.Level%7)
			withClone.Append(v, level, op.Agg)
			nilClone.Append(v, level, op.Agg)
		}
		reimported := New[float64](0, 6, nil, func(float64) int { return 8 }, func() float64 { return 0 })
		reimported.Import(nilClone.Export())
		for _, s := range []*Store[float64]{nilClone, reimported} {
			if s.HeapBytes() != withClone.HeapBytes() || s.Entries() != withClone.Entries() {
				return false
			}
			for v := uint32(0); v < 4; v++ {
				if s.Last(v) != withClone.Last(v) {
					return false
				}
				for level := 1; level <= 7; level++ {
					a, ok := s.Lookup(v, level)
					b, okb := withClone.Lookup(v, level)
					if ok != okb || a != b {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAccountingMatchesRecount: through gap fills, resizing overwrites
// and growth across several 512-vertex blocks, Entries and HeapBytes
// equal a recount over the histories, and so do an imported copy's.
func TestAccountingMatchesRecount(t *testing.T) {
	size := func(a []float64) int { return 24 + 8*len(a) }
	newStore := func(n int) *Store[[]float64] {
		return New[[]float64](n, 6,
			func(a []float64) []float64 { return append([]float64(nil), a...) },
			size,
			func() []float64 { return nil },
		)
	}
	recount := func(s *Store[[]float64]) (entries, heapBytes int64) {
		heapBytes = 24 * int64(len(s.hist))
		for _, h := range s.hist {
			entries += int64(len(h))
			for _, a := range h {
				heapBytes += int64(size(a))
			}
		}
		return entries, heapBytes
	}
	f := func(ops []struct {
		V     uint16
		Level uint8
		Len   uint8
	}) bool {
		s := newStore(600)
		for i, op := range ops {
			if i == len(ops)/2 {
				s.Grow(1500)
			}
			s.Append(uint32(int(op.V)%len(s.hist)), 1+int(op.Level%7), make([]float64, op.Len%4))
		}
		imported := newStore(0)
		imported.Import(s.Export())
		for _, st := range []*Store[[]float64]{s, imported} {
			if e, b := recount(st); st.Entries() != e || st.HeapBytes() != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
