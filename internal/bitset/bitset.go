// Package bitset implements a fixed-capacity bitset. It is the engine's
// vertex-set type: the changed sets that drive selective scheduling, the
// touched/seen marks of a level, and the seed of hybrid execution (§4.2
// of the paper).
//
// Set and Get are plain loads and stores. The rule that makes them safe
// from parallel loops is one writer per word: while any goroutine may
// write a word, no other goroutine reads or writes it. The engine keeps
// it by giving each worker whole 512-key blocks (8 words, one 64-byte
// line), so every key a worker sets lies in a block only it touches.
package bitset

import "math/bits"

// Bitset is a fixed-capacity set of uint32 keys.
type Bitset struct {
	words []uint64
	n     int
}

// New returns a bitset able to hold keys in [0, n).
func New(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity n the set was created with.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i and reports whether it was previously clear.
func (b *Bitset) Set(i uint32) bool {
	w := &b.words[i>>6]
	mask := uint64(1) << (i & 63)
	if *w&mask != 0 {
		return false
	}
	*w |= mask
	return true
}

// Get reports whether bit i is set.
func (b *Bitset) Get(i uint32) bool {
	return b.words[i>>6]&(uint64(1)<<(i&63)) != 0
}

// Words returns the number of 64-bit words backing the set; word i holds
// keys [64i, 64i+64).
func (b *Bitset) Words() int { return len(b.words) }

// Word returns word i: bit k of it is key 64i+k.
func (b *Bitset) Word(i int) uint64 { return b.words[i] }

// ClearAll zeroes the whole set.
func (b *Bitset) ClearAll() {
	clear(b.words)
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Members appends all set keys to dst in ascending order and returns it.
func (b *Bitset) Members(dst []uint32) []uint32 {
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			dst = append(dst, uint32(wi*64+tz))
			w &^= 1 << tz
		}
	}
	return dst
}

// Or merges other into b (b |= other). Capacities must match.
func (b *Bitset) Or(other *Bitset) {
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
}

// Clone returns a copy of b.
func (b *Bitset) Clone() *Bitset {
	c := &Bitset{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// Bytes reports the heap footprint of the word array, used by the
// memory-overhead accounting for Table 9.
func (b *Bitset) Bytes() int64 { return int64(len(b.words)) * 8 }
