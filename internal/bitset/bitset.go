// Package bitset provides a fixed-size, lock-free bit vector. It backs the
// bloom filters of the read signature (§IV-D2): the paper stresses that the
// signature memory is shared by all of the target program's threads and must
// be implemented with lock-free primitives to avoid data races and
// contention.
package bitset

import (
	"fmt"
	"sync/atomic"
)

// Atomic is a fixed-size bit vector safe for concurrent use without locks.
// Bits can only be set concurrently (Set reports the old bit); Reset must be
// externally quiesced (the write-signature path clearing a bloom filter
// synchronises via the slot's own atomic pointer, see internal/sig).
type Atomic struct {
	words []atomic.Uint64
	n     uint64
}

// NewAtomic returns an Atomic set holding n bits, all zero.
func NewAtomic(n uint64) *Atomic {
	return &Atomic{words: make([]atomic.Uint64, (n+63)/64), n: n}
}

// Len returns the number of bits in the set.
func (a *Atomic) Len() uint64 { return a.n }

// Set atomically sets bit i, returning whether the bit was previously set.
func (a *Atomic) Set(i uint64) (old bool) {
	if i >= a.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, a.n))
	}
	mask := uint64(1) << (i & 63)
	w := &a.words[i>>6]
	for {
		cur := w.Load()
		if cur&mask != 0 {
			return true
		}
		if w.CompareAndSwap(cur, cur|mask) {
			return false
		}
	}
}

// Reset clears every bit. Callers must ensure no concurrent Set is in flight
// for bits whose loss would violate their invariants.
func (a *Atomic) Reset() {
	for i := range a.words {
		a.words[i].Store(0)
	}
}
