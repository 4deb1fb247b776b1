// Package bloom implements the space-efficient probabilistic set membership
// structure used as the second level of the read signature (§IV-D2, Fig. 3a).
//
// In the paper the bloom filter records, per signature slot, the set of
// threads that have read the corresponding memory location. Its bit-vector
// size m depends on the number of threads t in the target program, and the
// number of hash functions k is derived automatically from the false-positive
// rate requested by the user, so that the FP rate of the *filter itself*
// never exceeds the configured threshold (the overall signature FP rate is
// instead dominated by first-level slot collisions, measured in §V-A3).
package bloom

import (
	"math"

	"commprof/internal/bitset"
	"commprof/internal/murmur"
)

// Params describes a bloom filter geometry derived from a capacity and a
// target false-positive rate.
type Params struct {
	Bits   uint64 // m: bit-vector length
	Hashes int    // k: number of probe positions per element
}

// Derive computes filter geometry for storing up to capacity elements with
// the given false-positive rate, using the standard optima
//
//	m = -n·ln(p) / ln²(2)        (Eq. 2's per-slot term)
//	k = (m/n)·ln(2)
//
// capacity is clamped to at least 1 and fpRate to (0, 0.5].
func Derive(capacity uint64, fpRate float64) Params {
	if capacity == 0 {
		capacity = 1
	}
	if fpRate <= 0 {
		fpRate = 1e-9
	}
	if fpRate > 0.5 {
		fpRate = 0.5
	}
	ln2sq := math.Ln2 * math.Ln2
	m := uint64(math.Ceil(-float64(capacity) * math.Log(fpRate) / ln2sq))
	if m < 8 {
		m = 8
	}
	k := int(math.Round(float64(m) / float64(capacity) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 32 {
		k = 32
	}
	return Params{Bits: m, Hashes: k}
}

// Filter is a lock-free bloom filter over uint64 elements (thread IDs in the
// read signature). The zero value is not usable; construct with New.
type Filter struct {
	bits *bitset.Atomic
	k    int
	seed uint64
}

// New constructs a filter with the given geometry. seed differentiates hash
// families between independent filters when required.
func New(p Params, seed uint64) *Filter {
	return &Filter{bits: bitset.NewAtomic(p.Bits), k: p.Hashes, seed: seed}
}

// Add inserts element v, returning true if the filter may have already
// contained it (i.e. every probed bit was already set).
func (f *Filter) Add(v uint64) (present bool) {
	h1, h2 := murmur.HashAddrPair(v, f.seed)
	present = true
	m := f.bits.Len()
	for i := 0; i < f.k; i++ {
		// Kirsch–Mitzenmacher double hashing: g_i = h1 + i·h2.
		pos := (h1 + uint64(i)*h2) % m
		if !f.bits.Set(pos) {
			present = false
		}
	}
	return present
}

// Reset clears the filter. Used by Algorithm 1 when a write invalidates the
// reader set recorded for a signature slot.
func (f *Filter) Reset() { f.bits.Reset() }
