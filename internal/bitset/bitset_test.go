package bitset

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	b := New(200)
	if b.Get(5) {
		t.Fatal("fresh bitset has bit set")
	}
	if !b.Set(5) {
		t.Fatal("Set of clear bit returned false")
	}
	if b.Set(5) {
		t.Fatal("Set of set bit returned true")
	}
	if !b.Get(5) {
		t.Fatal("bit not visible after Set")
	}
	b.ClearAll()
	if b.Get(5) {
		t.Fatal("bit visible after ClearAll")
	}
}

func TestCountAndMembers(t *testing.T) {
	b := New(1000)
	keys := []uint32{0, 1, 63, 64, 65, 127, 128, 999}
	for _, k := range keys {
		b.Set(k)
	}
	if got := b.Count(); got != len(keys) {
		t.Fatalf("Count = %d, want %d", got, len(keys))
	}
	members := b.Members(nil)
	if len(members) != len(keys) {
		t.Fatalf("Members len = %d, want %d", len(members), len(keys))
	}
	for i := range keys {
		if members[i] != keys[i] {
			t.Fatalf("Members[%d] = %d, want %d", i, members[i], keys[i])
		}
	}
}

// TestWordsSpellMembers walks the set word by word, the way the engine's
// vertex loops do, and must meet exactly Members.
func TestWordsSpellMembers(t *testing.T) {
	b := New(1000)
	keys := []uint32{0, 1, 63, 64, 65, 127, 128, 511, 512, 999}
	for _, k := range keys {
		b.Set(k)
	}
	if got, want := b.Words(), (1000+63)/64; got != want {
		t.Fatalf("Words = %d, want %d", got, want)
	}
	var walked []uint32
	for i := 0; i < b.Words(); i++ {
		for w := b.Word(i); w != 0; w &= w - 1 {
			walked = append(walked, uint32(i*64+bits.TrailingZeros64(w)))
		}
	}
	if !slices.Equal(walked, b.Members(nil)) || !slices.Equal(walked, keys) {
		t.Fatalf("word walk %v, Members %v, want %v", walked, b.Members(nil), keys)
	}
}

func TestOrClone(t *testing.T) {
	a, b := New(128), New(128)
	a.Set(1)
	b.Set(127)
	c := a.Clone()
	c.Or(b)
	if !c.Get(1) || !c.Get(127) {
		t.Fatal("Or result missing bits")
	}
	if a.Get(127) {
		t.Fatal("Or mutated source clone's origin")
	}
}

func TestClearAll(t *testing.T) {
	b := New(256)
	for i := 0; i < 256; i += 3 {
		b.Set(uint32(i))
	}
	b.ClearAll()
	if b.Count() != 0 {
		t.Fatalf("Count after ClearAll = %d", b.Count())
	}
}

func TestBytes(t *testing.T) {
	if got := New(64).Bytes(); got != 8 {
		t.Fatalf("Bytes(64) = %d, want 8", got)
	}
	if got := New(65).Bytes(); got != 16 {
		t.Fatalf("Bytes(65) = %d, want 16", got)
	}
}

// Property: a bitset behaves like a map[uint32]bool under random
// operations.
func TestQuickAgainstMap(t *testing.T) {
	f := func(seed int64, opsRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 300
		b := New(n)
		ref := map[uint32]bool{}
		ops := int(opsRaw)%500 + 1
		for i := 0; i < ops; i++ {
			k := uint32(rng.Intn(n))
			if rng.Intn(50) == 0 {
				b.ClearAll()
				clear(ref)
			} else {
				b.Set(k)
				ref[k] = true
			}
		}
		if b.Count() != len(ref) {
			return false
		}
		for k := range ref {
			if !b.Get(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
