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
//     addresses hashing to the slot (Fig. 3a). Thread IDs are a dense
//     universe of t values, so the profiler stores that set exactly, in
//     ⌈t/32⌉ mask words per slot (Asymmetric); the paper's lazily allocated
//     per-slot bloom filters are kept for the reproduction experiments
//     (Bloom);
//
//   - the WRITE signature is one-level: a fixed array of slots, each holding
//     only the ID of the last thread that wrote an address hashing to the
//     slot (Fig. 3b).
//
// Collisions (h(v1)==h(v2), v1!=v2) produce dependencies that do not exist —
// false positives — at a rate controlled by the slot count, which is the
// trade-off the paper quantifies. Total memory is fixed: 2 + 4·⌈t/32⌉ bytes
// per slot for the masks, Eq. 2 for the paper's filters.
package sig

import (
	"fmt"
	"sync/atomic"

	"commprof/internal/murmur"
	"commprof/internal/obs"
)

// NoWriter is returned when an address misses the write signature.
const NoWriter int32 = -1

// Backend is the conflict store consulted by the RAW detector (Algorithm 1).
// It has one caller at a time, each call ordered after the last by a
// happens-before edge: the detector that owns it.
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
}

// Options configures an asymmetric signature memory.
type Options struct {
	// Slots is the signature size n: the element count of both the
	// first-level read array and the write array. The paper evaluates
	// 1e6, 4e6, 1e7 and 1e8; 1e7 is its standard operating point.
	Slots uint64
	// Threads is t, the thread count of the target program. Thread IDs
	// passed to ObserveRead/ObserveWrite lie in [0, t). It sizes the reader
	// sets: ⌈t/32⌉ mask words per slot, so at most MaxThreads for
	// Asymmetric, or the per-slot filters for Bloom.
	Threads int
	// FPRate is ignored: the mask arena is exact, and Bloom takes its rate
	// as an argument. Kept only because bench/layers.go still sets it;
	// ROADMAP item 0(d) deletes it.
	FPRate float64
	// SeedRead / SeedWrite select independent hash functions for the two
	// arrays; zero values get deterministic defaults.
	SeedRead, SeedWrite uint64
	// Hash selects the slot-addressing hash function. The default,
	// HashMurmur, is the paper's choice ("much lower time complexity while
	// having less collisions in comparison with other hash functions",
	// §IV-D2); HashFold is a deliberately weaker xor-fold kept for the
	// hash-quality ablation experiment.
	Hash HashKind
	// Probes, when non-nil, counts reader resets, the one signature probe.
	// Nil keeps the hot path uninstrumented at the cost of one nil check per
	// hook site.
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
	if o.SeedRead == 0 {
		o.SeedRead = 0x9E3779B97F4A7C15
	}
	if o.SeedWrite == 0 {
		o.SeedWrite = 0xC2B2AE3D27D4EB4F
	}
	return nil
}

// base is what both read-signature layouts share: the slot addressing. Each
// layout keeps its own write signature, because Bloom's goes through
// sync/atomic, which has no 16-bit operations.
type base struct {
	opts Options
	// pow2 marks a power-of-two slot count, reduced with slotMask instead of
	// a 64-bit division; h&(n-1) == h%n there, so no address moves.
	pow2     bool
	slotMask uint64
}

func newBase(opts Options) (base, error) {
	if err := opts.setDefaults(); err != nil {
		return base{}, err
	}
	return base{
		opts:     opts,
		pow2:     opts.Slots&(opts.Slots-1) == 0,
		slotMask: opts.Slots - 1,
	}, nil
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
func (b *base) slots(addr uint64) (rs, ws uint64) {
	var h1, h2 uint64
	if b.opts.Hash == HashFold {
		// Weak fold: mixes poorly, so regular access strides map to
		// clustered slots. Exists only to quantify what MurmurHash buys.
		h1, h2 = foldHash(addr, b.opts.SeedRead), foldHash(addr, b.opts.SeedWrite)
	} else {
		h1, h2 = murmur.HashAddrPair(addr, b.opts.SeedRead)
		h2 = murmur.Mix64(h2 ^ b.opts.SeedWrite)
	}
	if b.pow2 {
		return h1 & b.slotMask, h2 & b.slotMask
	}
	return h1 % b.opts.Slots, h2 % b.opts.Slots
}

func foldHash(addr, seed uint64) uint64 {
	v := addr ^ seed
	return v ^ (v >> 17) ^ (v << 9)
}

// maxWords bounds the mask words per read slot.
const maxWords = 8

// MaxThreads is the largest thread count the mask arena holds: maxWords
// words of 32 reader bits per slot. Its tid+1 fits the uint16 write array.
const MaxThreads = 32 * maxWords

// Asymmetric is the profiler's asymmetric signature memory. Each read slot's
// reader set is w = ⌈t/32⌉ exact mask words in one flat arena: bit tid%32 of
// word tid/32 records that thread tid has read. Against the paper's per-slot
// bloom filter (14.4·t bits at FPRate 0.001, see Bloom) that is t bits rounded
// up to a word, with no second-level false positives, no allocation and no
// second hash pass; slot addressing, and so every first-level collision, is
// the same. The write signature holds each last writer as a uint16 tid+1. At
// w = 1 (t ≤ 32) a slot is one word at index rs: 6 bytes per slot with the
// write array.
//
// An Asymmetric has one caller at a time (the Backend contract) and reads and
// writes its arrays plainly. Another goroutine may call Occupancy while a run
// is in flight and nothing else.
type Asymmetric struct {
	base
	// words is w, the mask words per read slot.
	words uint64
	// masks is the read signature: slot rs's reader set is
	// masks[rs*w : rs*w+w].
	masks []uint32
	// write is the write signature: slot ws's last writer tid+1, 0 if none.
	write []uint16

	// nonEmpty counts the non-empty reader sets; Publish copies it to
	// occupied, the one thing another goroutine may read mid-run.
	nonEmpty int64
	occupied atomic.Int64
}

// NewAsymmetric builds an asymmetric signature memory. It refuses more than
// MaxThreads threads.
func NewAsymmetric(opts Options) (*Asymmetric, error) {
	if opts.Threads > MaxThreads {
		return nil, fmt.Errorf("sig: %d threads exceed the exact reader-set limit of %d threads (%d mask words per slot)",
			opts.Threads, MaxThreads, maxWords)
	}
	b, err := newBase(opts)
	if err != nil {
		return nil, err
	}
	words := uint64(opts.Threads+31) / 32
	return &Asymmetric{base: b, words: words, masks: make([]uint32, opts.Slots*words), write: make([]uint16, opts.Slots)}, nil
}

// Publish makes the caller's count of occupied slots visible to Occupancy.
func (s *Asymmetric) Publish() { s.occupied.Store(s.nonEmpty) }

// readers returns read slot rs's reader set. At w = 1 (here and in
// ObserveRead) the index is rs itself: no multiply delays the address of the
// access's likely cache miss.
func (s *Asymmetric) readers(rs uint64) []uint32 {
	if s.words == 1 {
		return s.masks[rs : rs+1]
	}
	return s.masks[rs*s.words : (rs+1)*s.words]
}

// ObserveRead implements Backend. One fused hash pass yields both slots.
func (s *Asymmetric) ObserveRead(addr uint64, tid int32) (int32, bool) {
	rs, ws := s.slots(addr)
	i, bit := rs, uint32(1)<<(uint(tid)&31)
	if s.words > 1 {
		i = rs*s.words + uint64(tid)>>5
	}
	old := s.masks[i]
	if old&bit == 0 {
		if old == 0 && (s.words == 1 || empty(s.readers(rs))) {
			s.nonEmpty++
		}
		s.masks[i] = old | bit
	}
	return int32(s.write[ws]) - 1, old&bit == 0 // an empty slot reads 0: NoWriter
}

// empty reports whether a reader set holds no thread.
func empty(set []uint32) bool {
	for _, m := range set {
		if m != 0 {
			return false
		}
	}
	return true
}

// ObserveWrite implements Backend. One fused hash pass yields both slots.
func (s *Asymmetric) ObserveWrite(addr uint64, tid int32) {
	rs, ws := s.slots(addr)
	// Clear the correspondent reader set in the read signature: the write
	// produces a new value, so earlier readers must count again (Fig. 2's
	// communicating-access rule). Only non-empty words are stored to.
	cleared := false
	set := s.readers(rs)
	for j, m := range set {
		if m != 0 {
			set[j], cleared = 0, true
		}
	}
	if cleared {
		s.nonEmpty--
		if p := s.opts.Probes; p != nil {
			p.ReaderResets.Inc()
		}
	}
	s.write[ws] = uint16(tid + 1)
}

// FootprintBytes implements Backend: the two arrays, a constant
// (2 + 4·w)·Slots.
func (s *Asymmetric) FootprintBytes() uint64 {
	return s.opts.Slots*2 + // write array (2-byte slots; Eq. 2 prices 4)
		uint64(len(s.masks))*4 // read arena
}

// AllocatedFilters is always 0: the mask arena has no filters. Kept only
// because bench/layers.go still reports it; ROADMAP item 0(d) deletes it.
func (s *Asymmetric) AllocatedFilters() uint64 { return 0 }

// FillRatio is always 0: an exact mask does not saturate. Kept only because
// bench/layers.go still reports it; ROADMAP item 0(d) deletes it.
func (s *Asymmetric) FillRatio(int) float64 { return 0 }

// Occupancy reports the fraction of read-signature slots in use — the
// signature saturation a live telemetry consumer watches to see whether the
// configured slot count is undersized for the workload's working set. A slot
// is in use while its reader set is non-empty; the figure is the caller's
// exact count as of its last Publish. Safe to call concurrently with a run.
func (s *Asymmetric) Occupancy() float64 {
	return float64(s.occupied.Load()) / float64(s.opts.Slots)
}
