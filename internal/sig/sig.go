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
//   - the WRITE signature is one-level: slots holding only the ID of the last
//     thread that wrote an address hashing there (Fig. 3b). The paper
//     addresses them with a second, independent hash (Bloom); the profiler
//     keeps each last writer beside the reader set of the same slot, so an
//     access costs one hash and one slot (Asymmetric).
//
// Collisions (h(v1)==h(v2), v1!=v2) produce dependencies that do not exist —
// false positives — at a rate controlled by the slot count, which is the
// trade-off the paper quantifies. Asymmetric is exactly Perfect run on the
// slot index instead of the address. Total memory is fixed: 2 + 4·⌈t/32⌉
// bytes per slot for Asymmetric, Eq. 2 for the paper's filters.
package sig

import (
	"encoding/binary"
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
	// Slots is the signature size n: Asymmetric's slot count, and the
	// element count of both of Bloom's arrays. The paper evaluates 1e6,
	// 4e6, 1e7 and 1e8; 1e7 is its standard operating point.
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
	// SeedRead selects the slot hash; SeedWrite selects Bloom's independent
	// write-array hash, and Asymmetric, whose writer shares the read slot,
	// does not use it. Zero values get deterministic defaults.
	SeedRead, SeedWrite uint64
	// Hash selects the slot-addressing hash function. The default,
	// HashMurmur, is the paper's choice ("much lower time complexity while
	// having less collisions in comparison with other hash functions",
	// §IV-D2); HashFold is a deliberately weaker xor-fold kept for the
	// hash-quality ablation experiment, which runs on Bloom. NewAsymmetric
	// refuses it.
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

// base is what both read-signature layouts share: the options and the
// reduction of a hash to a slot.
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

// reduce maps hash h to a slot in [0, Slots).
func (b *base) reduce(h uint64) uint64 {
	if b.pow2 {
		return h & b.slotMask
	}
	return h % b.opts.Slots
}

// slot maps addr to its read slot, HashAddr(addr, SeedRead) mod Slots:
// Asymmetric's one slot, and the read half of Bloom's pair. Declared on base,
// it fits the inlining budget that the same method on Asymmetric exceeds.
func (b *base) slot(addr uint64) uint64 {
	return b.reduce(murmur.HashAddr(addr, b.opts.SeedRead))
}

// maxWords bounds the mask words per read slot.
const maxWords = 8

// MaxThreads is the largest thread count the mask arena holds: maxWords
// words of 32 reader bits per slot. Its tid+1 fits a slot's uint16 writer.
const MaxThreads = 32 * maxWords

// Asymmetric is the profiler's asymmetric signature memory. Both halves of an
// address's state sit at one slot i = HashAddr(addr, SeedRead) mod n, the
// paper's read mapping, in one flat arena of 2 + 4·w bytes a slot: the last
// writer's tid+1 as a little-endian uint16 (0 if none), then the slot's reader
// set as w = ⌈t/32⌉ little-endian uint32 mask words, bit tid%32 of word tid/32
// recording that thread tid has read. So an access touches one slot, most
// often one cache line, after one hash pass, and Asymmetric computes exactly
// what Perfect computes on the key i instead of the address. Against the
// paper's layout (Bloom) the reader set is exact — t bits rounded up to a word
// against 14.4·t bits at FPRate 0.001 — and the writer collides exactly where
// the reader set does, not under a second, independent hash. At w = 1
// (t ≤ 32) a slot is 6 bytes.
//
// An Asymmetric has one caller at a time (the Backend contract) and reads and
// writes its arena plainly. Another goroutine may call Occupancy while a run
// is in flight and nothing else.
type Asymmetric struct {
	base
	// words is w, the mask words per slot; stride is a slot's 2 + 4·w bytes.
	words, stride uint64
	// arena holds slot i at arena[i·stride : (i+1)·stride].
	arena []byte

	// nonEmpty counts the non-empty reader sets; Publish copies it to
	// occupied, the one thing another goroutine may read mid-run.
	nonEmpty int64
	occupied atomic.Int64
}

// NewAsymmetric builds an asymmetric signature memory. It refuses more than
// MaxThreads threads, and HashFold, which only Bloom takes.
func NewAsymmetric(opts Options) (*Asymmetric, error) {
	if opts.Threads > MaxThreads {
		return nil, fmt.Errorf("sig: %d threads exceed the exact reader-set limit of %d threads (%d mask words per slot)",
			opts.Threads, MaxThreads, maxWords)
	}
	if opts.Hash != HashMurmur {
		return nil, fmt.Errorf("sig: Asymmetric addresses its slots with MurmurHash only; the HashFold ablation runs on sig.Bloom, the paper's layout")
	}
	b, err := newBase(opts)
	if err != nil {
		return nil, err
	}
	words := uint64(opts.Threads+31) / 32
	return &Asymmetric{base: b, words: words, stride: 2 + 4*words, arena: make([]byte, opts.Slots*(2+4*words))}, nil
}

// Publish makes the caller's count of occupied slots visible to Occupancy.
func (s *Asymmetric) Publish() { s.occupied.Store(s.nonEmpty) }

// ObserveRead implements Backend.
func (s *Asymmetric) ObserveRead(addr uint64, tid int32) (int32, bool) {
	at := s.slot(addr) * s.stride
	m, bit := at+2+uint64(tid)>>5*4, uint32(1)<<(uint(tid)&31)
	old := binary.LittleEndian.Uint32(s.arena[m : m+4 : m+4])
	if old&bit == 0 {
		if old == 0 && (s.words == 1 || unread(s.arena[at+2:at+s.stride])) {
			s.nonEmpty++
		}
		binary.LittleEndian.PutUint32(s.arena[m:m+4:m+4], old|bit)
	}
	return int32(binary.LittleEndian.Uint16(s.arena[at:at+2:at+2])) - 1, old&bit == 0 // an empty slot reads 0: NoWriter
}

// unread reports whether a reader set's mask words hold no thread.
func unread(set []byte) bool {
	for _, b := range set {
		if b != 0 {
			return false
		}
	}
	return true
}

// ObserveWrite implements Backend.
func (s *Asymmetric) ObserveWrite(addr uint64, tid int32) {
	at := s.slot(addr) * s.stride
	// Clear the slot's reader set: the write produces a new value, so
	// earlier readers must count again (Fig. 2's communicating-access rule).
	// Only non-empty words are stored to.
	cleared := false
	for m := at + 2; m < at+s.stride; m += 4 {
		if word := s.arena[m : m+4 : m+4]; binary.LittleEndian.Uint32(word) != 0 {
			binary.LittleEndian.PutUint32(word, 0)
			cleared = true
		}
	}
	if cleared {
		s.nonEmpty--
		if p := s.opts.Probes; p != nil {
			p.ReaderResets.Inc()
		}
	}
	binary.LittleEndian.PutUint16(s.arena[at:at+2:at+2], uint16(tid+1))
}

// FootprintBytes implements Backend: the arena, a constant (2 + 4·w)·Slots.
func (s *Asymmetric) FootprintBytes() uint64 { return uint64(len(s.arena)) }

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
