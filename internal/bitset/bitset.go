// Package bitset implements a fixed-capacity bitset with atomic set
// operations. It is the engine's vertex-set type: the changed sets that
// drive selective scheduling, the touched/seen marks of a level, and the
// seed of hybrid execution (§4.2 of the paper).
package bitset

import (
	"math/bits"
	"sync/atomic"
)

// Bitset is a fixed-capacity set of uint32 keys. Set/Get are safe for
// concurrent use; ClearAll, Or and the scans are not (call them between
// parallel phases, as the engine does).
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

// Set atomically sets bit i and reports whether it was previously clear.
func (b *Bitset) Set(i uint32) bool {
	w := &b.words[i>>6]
	mask := uint64(1) << (i & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(w, old, old|mask) {
			return true
		}
	}
}

// Get atomically reports whether bit i is set.
func (b *Bitset) Get(i uint32) bool {
	return atomic.LoadUint64(&b.words[i>>6])&(uint64(1)<<(i&63)) != 0
}

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

// Or merges other into b (b |= other). Capacities must match. Not safe
// concurrently with writers.
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
