// Package sig implements the paper's central data structure, the
// "Asymmetric Signature Memory" (§IV-D2, Fig. 3), plus a collision-free
// reference implementation used as the ground-truth baseline for measuring
// signature false-positive rates (§V-A3).
//
// A software signature gives an approximate representation of an unbounded
// set with a bounded amount of state. The asymmetry here is between the two
// access kinds:
//
//   - the READ signature is two-level: a fixed array of n slots addressed by
//     MurmurHash, each slot holding the set of thread IDs which have read
//     addresses hashing to the slot (Fig. 3a). The paper stores that set in
//     a lazily allocated bloom filter; thread IDs are a dense universe of t
//     values, so for t ≤ 64 this package stores it exactly in one 64-bit
//     mask per slot instead (see Asymmetric);
//
//   - the WRITE signature is one-level: a fixed array of slots, each holding
//     only the ID of the last thread that wrote an address hashing to the
//     slot (Fig. 3b).
//
// Collisions (h(v1)==h(v2), v1!=v2) produce dependencies that do not exist —
// false positives — at a rate controlled by the slot count, which is the
// trade-off the paper quantifies. Total memory is fixed and given by Eq. 2.
package sig

import (
	"fmt"
	"math"
	"sync/atomic"

	"commprof/internal/bloom"
	"commprof/internal/murmur"
	"commprof/internal/obs"
)

// NoWriter is returned when an address misses the write signature.
const NoWriter int32 = -1

// Backend is the conflict store consulted by the RAW detector (Algorithm 1).
// Implementations must be safe for concurrent use: the analysis runs inside
// the target program's own threads. (An Asymmetric stops being so once its
// single caller has declared itself with Own.)
type Backend interface {
	// ObserveRead processes a read of addr by thread tid. It returns the
	// last recorded writer of addr (NoWriter on a write-signature miss) and
	// whether this is tid's first read of addr since the last write to it
	// (i.e. addr∉read-signature for tid before this call). The read is
	// recorded in the read signature as a side effect.
	ObserveRead(addr uint64, tid int32) (writer int32, firstRead bool)
	// ObserveWrite records tid as the last writer of addr and invalidates
	// the recorded reader set for addr.
	ObserveWrite(addr uint64, tid int32)
	// FootprintBytes reports the memory the backend actually holds.
	FootprintBytes() uint64
	// Reset clears all recorded state.
	Reset()
	// Name identifies the backend in reports.
	Name() string
}

// Options configures an asymmetric signature memory.
type Options struct {
	// Slots is the signature size n: the element count of both the
	// first-level read array and the write array. The paper evaluates
	// 1e6, 4e6, 1e7 and 1e8; 1e7 is its standard operating point.
	Slots uint64
	// Threads is t, the thread count of the target program. It selects the
	// reader-set layout (one exact mask word per slot up to MaskThreads,
	// per-slot bloom filters beyond) and sizes the bloom filters.
	Threads int
	// FPRate is the acceptable false-positive rate of the per-slot bloom
	// filters (the paper uses 0.001 throughout its evaluation). It has no
	// effect on the mask layout, which is exact.
	FPRate float64
	// PaperBloom forces the paper's per-slot bloom filters at any thread
	// count. The reproduction experiments set it so Fig. 5, Eq. 2 and the
	// §V-A3 sweep keep measuring the paper's structure; nothing else does.
	PaperBloom bool
	// SeedRead / SeedWrite select independent hash functions for the two
	// arrays; zero values get deterministic defaults.
	SeedRead, SeedWrite uint64
	// Hash selects the slot-addressing hash function. The default,
	// HashMurmur, is the paper's choice ("much lower time complexity while
	// having less collisions in comparison with other hash functions",
	// §IV-D2); HashFold is a deliberately weaker xor-fold kept for the
	// hash-quality ablation experiment.
	Hash HashKind
	// Probes, when non-nil, receives self-observability telemetry (filter
	// allocations, CAS retries, reader resets). Nil keeps the hot path
	// uninstrumented at the cost of one nil check per hook site.
	Probes *obs.SigProbes
}

// HashKind selects the signature's slot-addressing hash.
type HashKind int

const (
	// HashMurmur is MurmurHash3 (the paper's choice; default).
	HashMurmur HashKind = iota
	// HashFold is a weak xor-fold of the address halves, kept as the
	// ablation baseline: strided addresses collide in clusters.
	HashFold
)

func (o *Options) setDefaults() error {
	if o.Slots == 0 {
		return fmt.Errorf("sig: Slots must be positive")
	}
	if o.Threads <= 0 {
		return fmt.Errorf("sig: Threads must be positive, got %d", o.Threads)
	}
	if o.FPRate <= 0 || o.FPRate >= 1 {
		return fmt.Errorf("sig: FPRate must be in (0,1), got %v", o.FPRate)
	}
	if o.SeedRead == 0 {
		o.SeedRead = 0x9E3779B97F4A7C15
	}
	if o.SeedWrite == 0 {
		o.SeedWrite = 0xC2B2AE3D27D4EB4F
	}
	return nil
}

// MaskThreads is the largest thread count whose reader sets fit one mask
// word: bit tid of a slot's word records that thread tid has read.
const MaskThreads = 64

// Asymmetric is the paper's asymmetric signature memory. All operations are
// lock-free: slot values use atomics and bloom filters use an atomic bitset,
// mirroring the paper's C++11 lock-free primitives. A signature with exactly
// one caller can say so (Own) and is then read and written plainly: same
// arrays, same slots, same answers.
//
// The second level of the read signature has two layouts, chosen once by
// NewAsymmetric. Up to MaskThreads threads each slot is one exact 64-bit
// reader mask in a flat array: t bits against the bloom filter's 14.4·t at
// FPRate 0.001, no second-level false positives, no allocation and no second
// hash pass. Beyond that, and when Options.PaperBloom asks for the paper's
// structure, each slot points at a lazily allocated bloom filter. Slot
// addressing, and so every first-level collision, is the same in both.
type Asymmetric struct {
	opts   Options
	bloomP bloom.Params
	// pow2 marks a power-of-two slot count, reduced with slotMask instead of
	// a 64-bit division; h&(n-1) == h%n there, so no address moves.
	pow2     bool
	slotMask uint64

	// write signature: slot -> last writer tid (+1, so 0 means empty).
	// Accessed through sync/atomic unless owned.
	write []int32
	// read signature, mask layout: slot -> reader bitmask. Nil on the bloom
	// layout. Accessed through sync/atomic unless owned.
	masks []uint64
	// read signature, bloom layout: slot -> *bloom.Filter (nil until first
	// use). Nil on the mask layout.
	read []atomic.Pointer[bloom.Filter]

	allocated atomic.Uint64 // number of live second-level filters

	// owned is set by Own. The owner counts the non-empty reader masks in
	// nonEmpty; Publish copies that to occupied, the one thing another
	// goroutine may read of an owned signature's slots mid-run.
	owned    bool
	nonEmpty int64
	occupied atomic.Int64
}

// NewAsymmetric builds an asymmetric signature memory.
func NewAsymmetric(opts Options) (*Asymmetric, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	s := &Asymmetric{
		opts:     opts,
		bloomP:   bloom.Derive(uint64(opts.Threads), opts.FPRate),
		pow2:     opts.Slots&(opts.Slots-1) == 0,
		slotMask: opts.Slots - 1,
		write:    make([]int32, opts.Slots),
	}
	if opts.Threads <= MaskThreads && !opts.PaperBloom {
		s.masks = make([]uint64, opts.Slots)
	} else {
		s.read = make([]atomic.Pointer[bloom.Filter], opts.Slots)
	}
	return s, nil
}

// Name implements Backend.
func (s *Asymmetric) Name() string { return "asymmetric-signature" }

// Options returns the configuration the signature was built with.
func (s *Asymmetric) Options() Options { return s.opts }

// Own declares that from here on one goroutine at a time calls ObserveRead
// and ObserveWrite, each call ordered after the last by a happens-before
// edge: the mask layout then drops its atomics (the bloom layout ignores the
// call) and is NOT safe for concurrent use. Call it on a fresh or Reset
// signature, before any goroutine that reads Occupancy starts; the owner
// calls Publish wherever it wants Occupancy brought up to date.
func (s *Asymmetric) Own() { s.owned = s.masks != nil }

// Publish makes the owner's count of occupied slots visible to Occupancy.
func (s *Asymmetric) Publish() {
	if s.owned {
		s.occupied.Store(s.nonEmpty)
	}
}

// slots maps addr to its (read, write) slot pair. Every backend operation
// needs both slots (ObserveRead looks up the writer and records the reader;
// ObserveWrite invalidates the readers and records the writer), so the murmur
// path derives them from ONE 128-bit hash pass: the two halves of MurmurHash3
// x64/128 are designed to be independent, the first half reproduces the
// historical HashAddr(addr, SeedRead) read mapping exactly, and the second
// half — folded with SeedWrite through the fmix64 finalizer, so both seed
// options stay meaningful and the write mapping keeps independent-hash
// collision statistics — addresses the write array. This halves the
// per-access hash cost relative to the old two-pass scheme (a finalizer is
// three shifts and two multiplies, not a hash pass).
func (s *Asymmetric) slots(addr uint64) (rs, ws uint64) {
	var h1, h2 uint64
	if s.opts.Hash == HashFold {
		// Weak fold: mixes poorly, so regular access strides map to
		// clustered slots. Exists only to quantify what MurmurHash buys.
		h1, h2 = foldHash(addr, s.opts.SeedRead), foldHash(addr, s.opts.SeedWrite)
	} else {
		h1, h2 = murmur.HashAddrPair(addr, s.opts.SeedRead)
		h2 = murmur.Mix64(h2 ^ s.opts.SeedWrite)
	}
	if s.pow2 {
		return h1 & s.slotMask, h2 & s.slotMask
	}
	return h1 % s.opts.Slots, h2 % s.opts.Slots
}

func foldHash(addr, seed uint64) uint64 {
	v := addr ^ seed
	return v ^ (v >> 17) ^ (v << 9)
}

// filterAt returns the bloom filter for a read slot, allocating it on first
// use with a lock-free CAS (losing allocators discard their filter).
func (s *Asymmetric) filterAt(slot uint64) *bloom.Filter {
	if f := s.read[slot].Load(); f != nil {
		return f
	}
	nf := bloom.New(s.bloomP, s.opts.SeedRead^slot)
	if s.read[slot].CompareAndSwap(nil, nf) {
		s.allocated.Add(1)
		if p := s.opts.Probes; p != nil {
			p.FilterAllocs.Inc()
		}
		return nf
	}
	if p := s.opts.Probes; p != nil {
		p.CASRetries.Inc()
	}
	return s.read[slot].Load()
}

// ObserveRead implements Backend. One fused hash pass yields both slots.
func (s *Asymmetric) ObserveRead(addr uint64, tid int32) (int32, bool) {
	rs, ws := s.slots(addr)
	bit := uint64(1) << (uint(tid) & 63)
	if s.owned {
		old := s.masks[rs]
		if old&bit == 0 {
			if old == 0 {
				s.nonEmpty++
			}
			s.masks[rs] = old | bit
		}
		return s.write[ws] - 1, old&bit == 0 // an empty slot reads 0: NoWriter
	}
	writer := atomic.LoadInt32(&s.write[ws]) - 1
	if s.masks == nil {
		already := s.filterAt(rs).Add(uint64(tid))
		return writer, !already
	}
	// Test before set: a repeat read, the common case, is one load and
	// leaves the cache line shared.
	m := &s.masks[rs]
	for {
		old := atomic.LoadUint64(m)
		if old&bit != 0 {
			return writer, false
		}
		if atomic.CompareAndSwapUint64(m, old, old|bit) {
			return writer, true
		}
		if p := s.opts.Probes; p != nil {
			p.CASRetries.Inc()
		}
	}
}

// ObserveWrite implements Backend. One fused hash pass yields both slots.
func (s *Asymmetric) ObserveWrite(addr uint64, tid int32) {
	rs, ws := s.slots(addr)
	// Clear the correspondent reader set in the read signature: the write
	// produces a new value, so earlier readers must count again (Fig. 2's
	// communicating-access rule).
	cleared := false
	if s.owned {
		if cleared = s.masks[rs] != 0; cleared {
			s.masks[rs] = 0
			s.nonEmpty--
		}
		s.write[ws] = tid + 1
	} else {
		if s.masks == nil {
			if f := s.read[rs].Load(); f != nil {
				f.Reset()
				cleared = true
			}
		} else if m := &s.masks[rs]; atomic.LoadUint64(m) != 0 {
			atomic.StoreUint64(m, 0)
			cleared = true
		}
		atomic.StoreInt32(&s.write[ws], tid+1)
	}
	if p := s.opts.Probes; cleared && p != nil {
		p.ReaderResets.Inc()
	}
}

// FootprintBytes implements Backend: the live heap held by the two arrays
// plus every allocated second-level filter. Both layouts spend 8 bytes per
// slot on the read array (a mask word or a filter pointer), so the mask
// layout's footprint is the constant 12·Slots.
func (s *Asymmetric) FootprintBytes() uint64 {
	perFilter := (s.bloomP.Bits + 63) / 64 * 8
	return s.opts.Slots*4 + // write array (4-byte slots, as in Eq. 2)
		s.opts.Slots*8 + // read array
		s.allocated.Load()*perFilter
}

// Reset clears both signatures. Like every mutator of an owned signature it
// is the owner's to call.
func (s *Asymmetric) Reset() {
	s.nonEmpty = 0
	s.occupied.Store(0)
	for i := range s.write {
		atomic.StoreInt32(&s.write[i], 0)
	}
	for i := range s.masks {
		atomic.StoreUint64(&s.masks[i], 0)
	}
	for i := range s.read {
		s.read[i].Store(nil)
	}
	s.allocated.Store(0)
}

// AllocatedFilters reports how many second-level bloom filters exist; always
// 0 on the mask layout, which has none.
func (s *Asymmetric) AllocatedFilters() uint64 { return s.allocated.Load() }

// occupancySample is how many slots Occupancy probes on the mask layout.
const occupancySample = 4096

// Occupancy reports the fraction of read-signature slots in use — the
// signature saturation a live telemetry consumer watches to see whether the
// configured slot count is undersized for the workload's working set. On the
// bloom layout a slot is in use once its filter is allocated (an exact
// count); on the mask layout it is in use while its reader set is non-empty:
// the owner's exact count as of its last Publish when the signature is owned
// (nobody else may walk masks written plainly), otherwise an estimate from
// occupancySample slots at a fixed stride over the whole range. Safe to call
// concurrently with a run.
func (s *Asymmetric) Occupancy() float64 {
	if s.masks == nil {
		return float64(s.allocated.Load()) / float64(s.opts.Slots)
	}
	if s.owned {
		return float64(s.occupied.Load()) / float64(s.opts.Slots)
	}
	stride := max(len(s.masks)/occupancySample, 1)
	probed, used := 0, 0
	for slot := 0; slot < len(s.masks); slot += stride {
		probed++
		if atomic.LoadUint64(&s.masks[slot]) != 0 {
			used++
		}
	}
	return float64(used) / float64(probed)
}

// FillRatio probes up to sample slots spread at a fixed stride across the
// WHOLE slot range and returns the mean set-bit fraction of the allocated
// bloom filters it finds — the second-level saturation complement to
// Occupancy. (An earlier version scanned from slot 0 until it had collected
// sample filters, so whenever more than sample filters were live the estimate
// was computed exclusively from the lowest slots — a biased sample, since
// address-hash locality makes slot position correlate with allocation age and
// workload structure.) Returns 0 when no probed slot holds a filter, and
// always on the mask layout: a mask with every thread's bit set is exact, not
// saturated, so it must not read as bloom fill. Safe to call concurrently
// with a run; the result is a racy estimate.
func (s *Asymmetric) FillRatio(sample int) float64 {
	if sample <= 0 {
		sample = 64
	}
	n := len(s.read)
	stride := n / sample
	if stride == 0 {
		stride = 1
	}
	var sum float64
	seen := 0
	for slot := 0; slot < n && seen < sample; slot += stride {
		f := s.read[slot].Load()
		if f == nil {
			continue
		}
		sum += float64(f.PopCount()) / float64(f.Bits())
		seen++
	}
	if seen == 0 {
		return 0
	}
	return sum / float64(seen)
}

// SigMem is the paper's Equation 2: the total signature memory in bytes for
// n slots, t threads and the given bloom false-positive rate,
//
//	SigMem(n,t) = n · (4 + (−t·ln(FPRate)) / (8·ln²2)).
func SigMem(n uint64, t int, fpRate float64) uint64 {
	perSlot := 4 + (-float64(t)*math.Log(fpRate))/(8*math.Ln2*math.Ln2)
	return uint64(math.Ceil(float64(n) * perSlot))
}
