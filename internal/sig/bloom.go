package sig

import (
	"fmt"
	"math"
	"sync/atomic"

	"commprof/internal/bloom"
	"commprof/internal/murmur"
)

// Bloom is the asymmetric signature memory as the paper builds it (§IV-D2,
// Fig. 3): a read array at Asymmetric's slot index, a separate write array of
// Eq. 2's 4-byte slots under an independent hash, and each read slot's reader
// set in a lazily allocated bloom filter sized for t threads at a
// false-positive rate. Its memory grows toward Eq. 2's bound as
// slots fill. The reproduction experiments (internal/experiments) are its one
// user, so Fig. 5, Eq. 2, the §V-A3 sweep and the hash ablation keep measuring
// the paper's structure; the profiler itself runs on Asymmetric's exact masks.
// All operations are lock-free: filters are installed by CAS and set through
// an atomic bitset.
type Bloom struct {
	base
	params bloom.Params
	// write signature: slot -> last writer tid+1, 0 if none, set atomically.
	write []int32
	// read signature: slot -> *bloom.Filter (nil until first use).
	read      []atomic.Pointer[bloom.Filter]
	allocated atomic.Uint64 // number of live filters
}

// NewBloom builds the paper's signature with per-slot filters at fpRate (the
// paper uses 0.001 throughout its evaluation), for any thread count.
func NewBloom(opts Options, fpRate float64) (*Bloom, error) {
	if fpRate <= 0 || fpRate >= 1 {
		return nil, fmt.Errorf("sig: bloom false-positive rate must be in (0,1), got %v", fpRate)
	}
	b, err := newBase(opts)
	if err != nil {
		return nil, err
	}
	return &Bloom{
		base:   b,
		params: bloom.Derive(uint64(opts.Threads), fpRate),
		write:  make([]int32, opts.Slots),
		read:   make([]atomic.Pointer[bloom.Filter], opts.Slots),
	}, nil
}

// slots maps addr to its (read, write) slot pair from one 128-bit hash pass:
// the first half of MurmurHash3 x64/128 is HashAddr(addr, SeedRead), the read
// mapping Asymmetric shares, and the second half, folded with SeedWrite
// through the fmix64 finalizer, addresses the write array with the collision
// statistics of an independent hash.
func (s *Bloom) slots(addr uint64) (rs, ws uint64) {
	if s.opts.Hash == HashFold {
		// Weak fold: mixes poorly, so regular access strides map to
		// clustered slots. Exists only to quantify what MurmurHash buys.
		return s.reduce(foldHash(addr, s.opts.SeedRead)), s.reduce(foldHash(addr, s.opts.SeedWrite))
	}
	h1, h2 := murmur.HashAddrPair(addr, s.opts.SeedRead)
	return s.reduce(h1), s.reduce(murmur.Mix64(h2 ^ s.opts.SeedWrite))
}

func foldHash(addr, seed uint64) uint64 {
	v := addr ^ seed
	return v ^ (v >> 17) ^ (v << 9)
}

// filterAt returns the bloom filter for a read slot, allocating it on first
// use with a lock-free CAS (losing allocators discard their filter).
func (s *Bloom) filterAt(slot uint64) *bloom.Filter {
	if f := s.read[slot].Load(); f != nil {
		return f
	}
	nf := bloom.New(s.params, s.opts.SeedRead^slot)
	if s.read[slot].CompareAndSwap(nil, nf) {
		s.allocated.Add(1)
		return nf
	}
	return s.read[slot].Load()
}

// ObserveRead implements Backend. One fused hash pass yields both slots.
func (s *Bloom) ObserveRead(addr uint64, tid int32) (int32, bool) {
	rs, ws := s.slots(addr)
	writer := atomic.LoadInt32(&s.write[ws]) - 1
	already := s.filterAt(rs).Add(uint64(tid))
	return writer, !already
}

// ObserveWrite implements Backend. One fused hash pass yields both slots.
func (s *Bloom) ObserveWrite(addr uint64, tid int32) {
	rs, ws := s.slots(addr)
	cleared := false
	if f := s.read[rs].Load(); f != nil {
		f.Reset()
		cleared = true
	}
	atomic.StoreInt32(&s.write[ws], tid+1)
	if p := s.opts.Probes; cleared && p != nil {
		p.ReaderResets.Inc()
	}
}

// FootprintBytes implements Backend: the live heap held by the two arrays
// (4 bytes per write slot, 8 per filter pointer) plus every allocated filter.
func (s *Bloom) FootprintBytes() uint64 {
	perFilter := (s.params.Bits + 63) / 64 * 8
	return s.opts.Slots*(4+8) + s.allocated.Load()*perFilter
}

// SigMem is the paper's Equation 2: the total memory in bytes of the bloom
// signature with n slots, t threads and the given false-positive rate, every
// slot's filter allocated,
//
//	SigMem(n,t) = n · (4 + (−t·ln(FPRate)) / (8·ln²2)).
func SigMem(n uint64, t int, fpRate float64) uint64 {
	perSlot := 4 + (-float64(t)*math.Log(fpRate))/(8*math.Ln2*math.Ln2)
	return uint64(math.Ceil(float64(n) * perSlot))
}
