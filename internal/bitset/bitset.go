// Package bitset provides a fixed-size bit vector with both a plain
// single-owner variant and a lock-free atomic variant. The atomic variant
// backs the bloom filters of the read signature (§IV-D2): the paper stresses
// that the signature memory is shared by all of the target program's threads
// and must be implemented with lock-free primitives to avoid data races and
// contention.
package bitset

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Set is a fixed-size bit vector for single-goroutine use.
type Set struct {
	words []uint64
	n     uint64
}

// New returns a Set holding n bits, all zero.
func New(n uint64) *Set {
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits in the set.
func (s *Set) Len() uint64 { return s.n }

// Set sets bit i. It panics if i is out of range.
func (s *Set) Set(i uint64) {
	s.check(i)
	s.words[i>>6] |= 1 << (i & 63)
}

// Test reports whether bit i is set. It panics if i is out of range.
func (s *Set) Test(i uint64) bool {
	s.check(i)
	return s.words[i>>6]&(1<<(i&63)) != 0
}

// Reset clears every bit.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Count returns the number of set bits.
func (s *Set) Count() uint64 {
	var c int
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return uint64(c)
}

// SizeBytes returns the heap footprint of the bit storage in bytes.
func (s *Set) SizeBytes() uint64 { return uint64(len(s.words)) * 8 }

func (s *Set) check(i uint64) {
	if i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Atomic is a fixed-size bit vector safe for concurrent use without locks.
// Bits can only be set and tested concurrently; Reset must be externally
// quiesced (the write-signature path clearing a bloom filter synchronises via
// the slot's own atomic pointer, see internal/sig).
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

// Test atomically reports whether bit i is set.
func (a *Atomic) Test(i uint64) bool {
	if i >= a.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, a.n))
	}
	return a.words[i>>6].Load()&(1<<(i&63)) != 0
}

// Reset clears every bit. Callers must ensure no concurrent Set is in flight
// for bits whose loss would violate their invariants.
func (a *Atomic) Reset() {
	for i := range a.words {
		a.words[i].Store(0)
	}
}

// Count returns the number of set bits at the time of the call.
func (a *Atomic) Count() uint64 {
	var c int
	for i := range a.words {
		c += bits.OnesCount64(a.words[i].Load())
	}
	return uint64(c)
}

// SizeBytes returns the heap footprint of the bit storage in bytes.
func (a *Atomic) SizeBytes() uint64 { return uint64(len(a.words)) * 8 }
