package sig

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"commprof/internal/bloom"
	"commprof/internal/murmur"
)

// newTestSig builds the profiler's signature at t = 32: one mask word a slot.
func newTestSig(t *testing.T, slots uint64) *Asymmetric {
	t.Helper()
	s, err := NewAsymmetric(Options{Slots: slots, Threads: 32})
	if err != nil {
		t.Fatalf("NewAsymmetric: %v", err)
	}
	return s
}

// newBloomSig builds the paper's signature at t = 32 and FPRate 0.001.
func newBloomSig(t *testing.T, slots uint64) *Bloom {
	t.Helper()
	s, err := NewBloom(Options{Slots: slots, Threads: 32}, 0.001)
	if err != nil {
		t.Fatalf("NewBloom: %v", err)
	}
	return s
}

// eachLayout runs f against the mask arena and the paper's bloom layout.
func eachLayout(t *testing.T, slots uint64, f func(t *testing.T, s Backend)) {
	t.Run("mask", func(t *testing.T) { f(t, newTestSig(t, slots)) })
	t.Run("bloom", func(t *testing.T) { f(t, newBloomSig(t, slots)) })
}

// occupancy is the share of read slots holding a reader set: Occupancy as of
// now on the mask arena, the allocated filters on the bloom layout.
func occupancy(s Backend) float64 {
	if b, ok := s.(*Bloom); ok {
		return float64(b.allocated.Load()) / float64(b.opts.Slots)
	}
	a := s.(*Asymmetric)
	a.Publish()
	return a.Occupancy()
}

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{Slots: 0, Threads: 32},
		{Slots: 10, Threads: 0},
		{Slots: 10, Threads: -1},
	}
	for i, o := range bad {
		if _, err := NewAsymmetric(o); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, o)
		}
		if _, err := NewBloom(o, 0.001); err == nil {
			t.Errorf("case %d: invalid options accepted by NewBloom: %+v", i, o)
		}
	}
	for _, rate := range []float64{0, 1, -0.5} {
		if _, err := NewBloom(Options{Slots: 10, Threads: 4}, rate); err == nil {
			t.Errorf("NewBloom accepted false-positive rate %v", rate)
		}
	}
	// The arena holds up to MaxThreads threads exactly and refuses more by
	// name; the paper's layout has no such limit.
	if _, err := NewAsymmetric(Options{Slots: 10, Threads: MaxThreads}); err != nil {
		t.Errorf("t = %d refused: %v", MaxThreads, err)
	}
	_, err := NewAsymmetric(Options{Slots: 10, Threads: MaxThreads + 1})
	if err == nil || !strings.Contains(err.Error(), "limit of 256 threads") {
		t.Errorf("t = %d: err %v, want the 256-thread limit named", MaxThreads+1, err)
	}
	if _, err := NewBloom(Options{Slots: 10, Threads: MaxThreads + 1}, 0.001); err != nil {
		t.Errorf("NewBloom refused t = %d: %v", MaxThreads+1, err)
	}
	// The weak fold is the paper layout's ablation hash: the arena refuses it
	// and names the layout that takes it, rather than ignore the option.
	fold := Options{Slots: 10, Threads: 4, Hash: HashFold}
	if _, err := NewAsymmetric(fold); err == nil || !strings.Contains(err.Error(), "sig.Bloom") {
		t.Errorf("NewAsymmetric with HashFold: err %v, want a refusal naming sig.Bloom", err)
	}
	if _, err := NewBloom(fold, 0.001); err != nil {
		t.Errorf("NewBloom refused HashFold: %v", err)
	}
}

func TestRAWSequence(t *testing.T) {
	s := newTestSig(t, 1<<16)
	const addr = 0x1000

	// Read before any write: no writer recorded.
	if w, first := s.ObserveRead(addr, 1); w != NoWriter || !first {
		t.Fatalf("read-before-write = (%d,%v), want (NoWriter,true)", w, first)
	}

	// T0 writes, T1 reads: writer seen, first read (write cleared T1's record).
	s.ObserveWrite(addr, 0)
	w, first := s.ObserveRead(addr, 1)
	if w != 0 || !first {
		t.Fatalf("after write: (%d,%v), want (0,true)", w, first)
	}

	// Second read by T1 without intervening write: not a first read.
	if _, first := s.ObserveRead(addr, 1); first {
		t.Fatal("repeat read reported as first")
	}

	// Different thread's first read still counts.
	if w, first := s.ObserveRead(addr, 2); w != 0 || !first {
		t.Fatalf("T2 read = (%d,%v), want (0,true)", w, first)
	}

	// A new write resets the reader set: T1 reads count again.
	s.ObserveWrite(addr, 3)
	if w, first := s.ObserveRead(addr, 1); w != 3 || !first {
		t.Fatalf("after rewrite = (%d,%v), want (3,true)", w, first)
	}
}

func TestWriteOverwritesWriter(t *testing.T) {
	s := newTestSig(t, 1<<16)
	s.ObserveWrite(0x2000, 5)
	s.ObserveWrite(0x2000, 9)
	if w, _ := s.ObserveRead(0x2000, 1); w != 9 {
		t.Fatalf("last writer = %d, want 9", w)
	}
}

func TestThreadZeroIsValidWriter(t *testing.T) {
	// Thread 0 must be distinguishable from "no writer" (+1 encoding).
	s := newTestSig(t, 1<<12)
	s.ObserveWrite(0x3000, 0)
	if w, _ := s.ObserveRead(0x3000, 1); w != 0 {
		t.Fatalf("writer = %d, want 0", w)
	}
}

func TestMatchesPerfectWhenLarge(t *testing.T) {
	// With a huge slot count relative to the address set, the signature must
	// agree with the perfect backend on essentially every event; a handful
	// of residual hash collisions (birthday bound) are tolerated.
	s := newTestSig(t, 1<<22)
	p := NewPerfect(32)
	rng := rand.New(rand.NewSource(7))
	const addrs = 512
	reads, mismatches := 0, 0
	for i := 0; i < 20000; i++ {
		addr := uint64(0x4000 + 8*rng.Intn(addrs))
		tid := int32(rng.Intn(32))
		if rng.Intn(3) == 0 {
			s.ObserveWrite(addr, tid)
			p.ObserveWrite(addr, tid)
		} else {
			reads++
			ws, fs := s.ObserveRead(addr, tid)
			wp, fp := p.ObserveRead(addr, tid)
			if ws != wp || fs != fp {
				mismatches++
			}
		}
	}
	if rate := float64(mismatches) / float64(reads); rate > 0.01 {
		t.Fatalf("mismatch rate %.4f (%d/%d) too high for a 4M-slot signature", rate, mismatches, reads)
	}
}

func TestSmallSignatureProducesFalsePositives(t *testing.T) {
	// The core trade-off (§V-A3): with far fewer slots than addresses,
	// collisions must create writer reports the perfect backend rejects.
	s, err := NewAsymmetric(Options{Slots: 64, Threads: 32})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPerfect(32)
	fp := 0
	for i := 0; i < 4096; i++ {
		addr := uint64(0x8000 + 8*i)
		if i%2 == 0 {
			s.ObserveWrite(addr, 1)
			p.ObserveWrite(addr, 1)
			continue
		}
		ws, _ := s.ObserveRead(addr, 2)
		wp, _ := p.ObserveRead(addr, 2)
		if ws != NoWriter && wp == NoWriter {
			fp++
		}
	}
	if fp == 0 {
		t.Fatal("64-slot signature produced zero false positives over 4096 distinct addresses")
	}
}

func TestEq2PaperOperatingPoint(t *testing.T) {
	// §V-A2: n=1e7 slots, t=32 threads, FPRate=0.001 → "around 580MB could
	// be sufficient". Eq. 2 gives n·(4+(−32·ln0.001)/(8·ln²2)) ≈ 6.15e8 B.
	got := SigMem(10_000_000, 32, 0.001)
	perSlot := 4 + (-32*math.Log(0.001))/(8*math.Ln2*math.Ln2)
	want := uint64(math.Ceil(1e7 * perSlot))
	if got != want {
		t.Fatalf("SigMem = %d, want %d", got, want)
	}
	mb := float64(got) / (1 << 20)
	if mb < 500 || mb > 650 {
		t.Fatalf("SigMem(1e7,32,0.001) = %.1f MB, paper says ≈580 MB", mb)
	}
}

func TestSigMemMonotonic(t *testing.T) {
	f := func(nSmall, nBig uint32, threads uint8) bool {
		if nSmall > nBig {
			nSmall, nBig = nBig, nSmall
		}
		tc := int(threads%64) + 1
		return SigMem(uint64(nSmall), tc, 0.001) <= SigMem(uint64(nBig), tc, 0.001)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFootprintBoundedByModel(t *testing.T) {
	const slots = 1 << 14
	eachLayout(t, slots, func(t *testing.T, s Backend) {
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 100000; i++ {
			addr := uint64(rng.Int63())
			if i%4 == 0 {
				s.ObserveWrite(addr, int32(i%32))
			} else {
				s.ObserveRead(addr, int32(i%32))
			}
		}
		foot := s.FootprintBytes()
		b, ok := s.(*Bloom)
		if !ok {
			// No second level to grow: 2 B writer + 4 B mask per slot, far
			// under Eq. 2's 61.5 B/slot at t = 32.
			if foot != slots*6 {
				t.Fatalf("mask footprint %d, want %d", foot, slots*6)
			}
			if bound := SigMem(slots, 32, 0.001); foot >= bound {
				t.Fatalf("mask footprint %d not below Eq. 2 bound %d", foot, bound)
			}
			return
		}
		// Upper bound from the actual geometry: both arrays plus every
		// slot's filter rounded up to whole 64-bit words (Eq. 2 models the
		// unrounded bit count, so it sits slightly below this rounded-up
		// bound).
		perFilter := (bloom.Derive(32, 0.001).Bits + 63) / 64 * 8
		bound := uint64(slots)*(4+8) + uint64(slots)*perFilter
		if foot > bound {
			t.Fatalf("footprint %d exceeds geometry bound %d", foot, bound)
		}
		live := uint64(0)
		for i := range b.read {
			if b.read[i].Load() != nil {
				live++
			}
		}
		if live == 0 || b.allocated.Load() != live {
			t.Fatalf("%d filters counted, %d live", b.allocated.Load(), live)
		}
		if want := uint64(slots)*(4+8) + live*perFilter; foot != want {
			t.Fatalf("footprint %d, want %d for %d live filters", foot, want, live)
		}
	})
}

func TestFootprintFixedUnderGrowingWorkingSet(t *testing.T) {
	// §V-A2's headline property: memory consumption stays fixed regardless
	// of the program's input size. Saturate the signature with two working
	// sets that differ 10x and compare.
	measure := func(addrs int) uint64 {
		s := newTestSig(t, 4096)
		for i := 0; i < addrs; i++ {
			s.ObserveWrite(uint64(i*64), 0)
			s.ObserveRead(uint64(i*64), 1)
		}
		return s.FootprintBytes()
	}
	small, large := measure(100_000), measure(1_000_000)
	if small != large {
		t.Fatalf("footprint grew with working set: %d -> %d", small, large)
	}
}

func TestPerfectFootprintGrows(t *testing.T) {
	p := NewPerfect(32)
	p.ObserveWrite(0, 0)
	f1 := p.FootprintBytes()
	for i := uint64(0); i < 1000; i++ {
		p.ObserveWrite(i*8, 0)
	}
	if p.FootprintBytes() <= f1 {
		t.Fatal("perfect backend footprint did not grow with distinct addresses")
	}
	if p.Entries() != 1000 {
		t.Fatalf("Entries = %d, want 1000", p.Entries())
	}
}

func TestConcurrentObserveNoRace(t *testing.T) {
	// Lock-freedom smoke test for the paper's layout, which keeps its atomic
	// design (the mask arena has one caller at a time): hammer one signature
	// from many goroutines. Run with -race.
	t.Run("bloom", func(t *testing.T) {
		s := newBloomSig(t, 1<<12)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 5000; i++ {
					addr := uint64((w*5000 + i) % 997 * 8)
					if i%3 == 0 {
						s.ObserveWrite(addr, int32(w))
					} else {
						s.ObserveRead(addr, int32(w))
					}
				}
			}(w)
		}
		wg.Wait()
	})
}

func TestBackendInterfaceCompliance(t *testing.T) {
	var _ Backend = &Asymmetric{}
	var _ Backend = &Bloom{}
	var _ Backend = &Perfect{}
}

func TestFusedSlotsPreserveReadMapping(t *testing.T) {
	// The arena's one slot is the paper's read mapping, HashAddr with
	// SeedRead, and so is the read half of the paper layout's fused
	// single-pass pair, whose write half must not degenerate into it.
	s, b := newTestSig(t, 1<<16), newBloomSig(t, 1<<16)
	same := 0
	for i := 0; i < 4096; i++ {
		addr := uint64(i) * 2654435761
		want := murmur.HashAddr(addr, s.opts.SeedRead) % s.opts.Slots
		if got := s.slot(addr); got != want {
			t.Fatalf("addr %#x: arena slot %d, read mapping %d", addr, got, want)
		}
		rs, ws := b.slots(addr)
		if rs != want {
			t.Fatalf("addr %#x: bloom read slot %d, read mapping %d", addr, rs, want)
		}
		if rs == ws {
			same++
		}
	}
	// Two independent uniform hashes over 2^16 slots collide ~1/65536 per
	// address; tolerate a little slack.
	if same > 4 {
		t.Errorf("read and write slots coincided %d/4096 times; halves not independent", same)
	}
}

func TestFillRatioSamplesWholeSlotRange(t *testing.T) {
	// Occupancy counts a non-empty reader set wherever it sits: any slot of
	// the range, any word of the set. Full reader sets are exact state, so
	// they must not read as bloom fill.
	t.Run("mask", func(t *testing.T) {
		for _, threads := range []int{32, 128} {
			s, err := NewAsymmetric(Options{Slots: 1 << 10, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			used := map[uint64]bool{}
			for i := uint64(0); i < 300; i++ {
				used[s.slot(i*8)] = true
				for tid := 0; tid < threads; tid++ {
					s.ObserveRead(i*8, int32(tid))
				}
			}
			s.Publish()
			if got, want := s.Occupancy(), float64(len(used))/(1<<10); got != want {
				t.Errorf("t=%d: Occupancy = %v, want %v", threads, got, want)
			}
			if got := s.FillRatio(64); got != 0 {
				t.Errorf("t=%d: FillRatio on full reader sets = %v, want 0 (bloom fill only)", threads, got)
			}
		}
	})
}

// maskModel is the naive reference for the mask arena: each slot's last
// writer and reader set held in maps, keyed by the signature's own slot(), with
// bit tid%32 of word tid/32 for thread tid.
type maskModel struct {
	readers map[uint64][maxWords]uint32
	writers map[uint64]int32
}

func newMaskModel() *maskModel {
	return &maskModel{readers: map[uint64][maxWords]uint32{}, writers: map[uint64]int32{}}
}

func (m *maskModel) read(i uint64, tid int32) (int32, bool) {
	w, ok := m.writers[i]
	if !ok {
		w = NoWriter
	}
	set := m.readers[i]
	word, bit := tid/32, uint32(1)<<uint(tid%32)
	first := set[word]&bit == 0
	set[word] |= bit
	m.readers[i] = set
	return w, first
}

func (m *maskModel) write(i uint64, tid int32) {
	delete(m.readers, i)
	m.writers[i] = tid
}

// apply runs one operation on the arena and the model and fails on a read
// whose verdict differs.
func (m *maskModel) apply(t testing.TB, s *Asymmetric, write bool, addr uint64, tid int32) {
	t.Helper()
	i := s.slot(addr)
	if write {
		s.ObserveWrite(addr, tid)
		m.write(i, tid)
		return
	}
	gw, gf := s.ObserveRead(addr, tid)
	if ww, wf := m.read(i, tid); gw != ww || gf != wf {
		t.Fatalf("read(%#x, T%d) = (%d,%v), model (%d,%v)", addr, tid, gw, gf, ww, wf)
	}
}

// occupancy is the model's share of non-empty reader sets.
func (m *maskModel) occupancy(slots uint64) float64 {
	return float64(len(m.readers)) / float64(slots)
}

// checkArena holds the arena to the model byte for byte: slot i is the
// 2 + 4·w bytes at offset i·(2 + 4·w), the writer's tid+1 as a little-endian
// uint16, then the w little-endian uint32 mask words; and the footprint is
// the arena.
func (m *maskModel) checkArena(t testing.TB, s *Asymmetric) {
	t.Helper()
	slots, w := s.opts.Slots, s.words
	stride := 2 + 4*w
	if got, want := s.FootprintBytes(), slots*stride; got != want || uint64(len(s.arena)) != want {
		t.Errorf("FootprintBytes = %d over a %d-byte arena, want %d", got, len(s.arena), want)
	}
	for i := uint64(0); i < slots; i++ {
		slot := s.arena[i*stride : (i+1)*stride]
		writer, ok := m.writers[i]
		if !ok {
			writer = NoWriter
		}
		if got := int32(slot[0]) | int32(slot[1])<<8; got-1 != writer {
			t.Fatalf("slot %d holds writer %d, model %d", i, got-1, writer)
		}
		want := m.readers[i]
		for j := uint64(0); j < w; j++ {
			if got := binary.LittleEndian.Uint32(slot[2+4*j:]); got != want[j] {
				t.Fatalf("slot %d word %d holds %x, model %x", i, j, got, want[j])
			}
		}
	}
}

// modelSeeds are the read-hash seeds the reference-model wall addresses the
// arena with: the default and a second member of the murmur family.
var modelSeeds = []uint64{0, 0x5bd1e9955bd1e995}

func TestMaskLayoutMatchesReferenceModel(t *testing.T) {
	for _, threads := range []int{1, 2, 31, 32, 33, 64, 65, 128, 256} {
		for _, slots := range []uint64{1, 64, 1 << 10, 1000, 37} {
			for hash, seedRead := range modelSeeds {
				// The /owned variant publishes after every operation, as an
				// owner's batch kernel does per batch, and holds Occupancy to
				// the model at each step; the plain one publishes at the end.
				for _, owned := range []bool{false, true} {
					name := fmt.Sprintf("t=%d/slots=%d/hash=%d", threads, slots, hash)
					if owned {
						name += "/owned"
					}
					t.Run(name, func(t *testing.T) {
						s, err := NewAsymmetric(Options{Slots: slots, Threads: threads, SeedRead: seedRead})
						if err != nil {
							t.Fatal(err)
						}
						if w := uint64(threads+31) / 32; s.words != w {
							t.Fatalf("%d mask words per slot, want %d", s.words, w)
						}
						seed := int64(threads)*1_000_003 + int64(slots)*31 + int64(hash)
						rng := rand.New(rand.NewSource(seed))
						ref := newMaskModel()
						for i := 0; i < 20000; i++ {
							// ~4 addresses per slot: collisions are the rule.
							addr := uint64(0x7000 + 8*rng.Intn(int(4*slots)))
							tid := int32(rng.Intn(threads))
							ref.apply(t, s, rng.Intn(4) == 0, addr, tid)
							if owned {
								s.Publish()
								if got, want := s.Occupancy(), ref.occupancy(slots); got != want {
									t.Fatalf("seed %d op %d: Occupancy = %v, model %v", seed, i, got, want)
								}
							}
						}
						ref.checkArena(t, s)
						// Occupancy is the caller's exact count as of its last Publish.
						if !owned {
							if got := s.Occupancy(); got != 0 {
								t.Errorf("Occupancy before Publish = %v, want 0", got)
							}
							s.Publish()
						}
						if got, want := s.Occupancy(), ref.occupancy(slots); got != want {
							t.Errorf("Occupancy = %v, want exactly %v (%d non-empty reader sets)", got, want, len(ref.readers))
						}
					})
				}
			}
		}
	}
}

// TestAsymmetricIsPerfectOnSlotKey is the arena's semantics as one statement:
// Asymmetric fed an address computes exactly what the collision-free Perfect
// computes fed the key HashAddr(addr, SeedRead) mod n. A last writer kept
// under any other index, or a mask word at any other offset, breaks it on
// streams where collisions are the rule.
func TestAsymmetricIsPerfectOnSlotKey(t *testing.T) {
	for _, slots := range []uint64{1, 37, 1024} {
		for _, threads := range []int{1, 32, 33, 256} {
			t.Run(fmt.Sprintf("slots=%d/t=%d", slots, threads), func(t *testing.T) {
				s, err := NewAsymmetric(Options{Slots: slots, Threads: threads})
				if err != nil {
					t.Fatal(err)
				}
				p := NewPerfect(threads)
				rng := rand.New(rand.NewSource(int64(slots)*257 + int64(threads)))
				for i := 0; i < 50000; i++ {
					// ~8 addresses a slot, a third of the operations writes.
					addr := uint64(0x9000 + 8*rng.Intn(int(8*slots)))
					key := murmur.HashAddr(addr, s.opts.SeedRead) % slots
					tid := int32(rng.Intn(threads))
					if rng.Intn(3) == 0 {
						s.ObserveWrite(addr, tid)
						p.ObserveWrite(key, tid)
						continue
					}
					gw, gf := s.ObserveRead(addr, tid)
					if pw, pf := p.ObserveRead(key, tid); gw != pw || gf != pf {
						t.Fatalf("op %d: read(%#x, T%d) = (%d,%v), Perfect on key %d says (%d,%v)",
							i, addr, tid, gw, gf, key, pw, pf)
					}
				}
			})
		}
	}
}

// FuzzMaskArena holds the arena to maskModel at a fuzzed thread count t in
// [1, 256] and slot count in [1, 256], over a fuzzed op sequence of three
// bytes an op: the kind (low bit) and 15 bits of address, then the thread.
// Every read's verdict, the Occupancy after every op, and at the end the
// arena word for word must match the model. The arena is then released and
// a signature of the same size built again, which takes it back from the
// pool: a second round of the ops, shifted one granule, must match a fresh
// model the same way. Ops past the 64th are ignored, so that minimising a
// long input stays quick.
func FuzzMaskArena(f *testing.F) {
	for _, threads := range []uint8{0, 1, 30, 31, 32, 63, 64, 127, 255} {
		// At every word boundary the highest thread writes and then reads
		// beside thread 0, and a last write empties the reader set again.
		f.Add(threads, uint16(37), []byte{1, 0, threads, 0, 0, 0, 0, 0, threads, 3, 0, 2, 2, 0, threads, 1, 0, 0})
	}
	f.Fuzz(func(t *testing.T, threadsRaw uint8, slotsRaw uint16, ops []byte) {
		threads, slots := int(threadsRaw)+1, uint64(slotsRaw)%256+1
		for round := range uint64(2) {
			s, err := NewAsymmetric(Options{Slots: slots, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			ref := newMaskModel()
			for i := 0; i+3 <= len(ops) && i < 3*64; i += 3 {
				addr := 0x7000 + 8*(uint64(ops[i]>>1)|uint64(ops[i+1])<<7+round)
				ref.apply(t, s, ops[i]&1 == 1, addr, int32(int(ops[i+2])%threads))
				s.Publish()
				if got, want := s.Occupancy(), ref.occupancy(slots); got != want {
					t.Fatalf("round %d op %d: Occupancy = %v, model %v", round, i/3, got, want)
				}
			}
			ref.checkArena(t, s)
			s.Release()
		}
	})
}

func TestPow2ReductionMatchesModulo(t *testing.T) {
	// h&(n-1) must pick the slot h%n picked before, at every power-of-two n,
	// so the fast reduction moves no address and changes no collision.
	rng := rand.New(rand.NewSource(11))
	addrs := make([]uint64, 100000)
	for i := range addrs {
		addrs[i] = rng.Uint64()
	}
	for _, hash := range []HashKind{HashMurmur, HashFold} {
		for k := 0; k <= 24; k++ {
			opts := Options{Slots: 1 << k, Threads: 32, Hash: hash}
			if err := opts.setDefaults(); err != nil {
				t.Fatal(err)
			}
			// Bare structs: slot() and slots() touch no array, and 2^24 real
			// slots would cost 200 MB per size.
			and := base{opts: opts, pow2: true, slotMask: opts.Slots - 1}
			mod := base{opts: opts}
			for _, a := range addrs {
				ar, aw := (&Bloom{base: and}).slots(a)
				mr, mw := (&Bloom{base: mod}).slots(a)
				if ar != mr || aw != mw {
					t.Fatalf("hash %d, 2^%d slots, addr %#x: & gives (%d,%d), %% gives (%d,%d)",
						hash, k, a, ar, aw, mr, mw)
				}
				if hash != HashMurmur {
					continue
				}
				if ai, mi := and.slot(a), mod.slot(a); ai != mi || ai != ar {
					t.Fatalf("2^%d slots, addr %#x: arena slot & gives %d, %% gives %d, read mapping %d", k, a, ai, mi, ar)
				}
			}
		}
	}
	for _, n := range []uint64{1, 2, 1 << 20} {
		if s := newTestSig(t, n); !s.pow2 {
			t.Errorf("Slots=%d not recognised as a power of two", n)
		}
	}
	for _, n := range []uint64{3, 1000, 1<<20 + 1} {
		if s := newTestSig(t, n); s.pow2 {
			t.Errorf("Slots=%d taken for a power of two", n)
		}
	}
}

func TestMaskObserveDoesNotAllocate(t *testing.T) {
	for _, threads := range []int{32, MaxThreads} {
		s, err := NewAsymmetric(Options{Slots: 1 << 16, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			addr := uint64(i) * 8
			s.ObserveRead(addr, int32(i%threads))
			s.ObserveWrite(addr+8, int32(i%threads))
			s.ObserveRead(addr+8, int32((i+1)%threads))
			i++
		})
		if allocs != 0 {
			t.Fatalf("t=%d: mask arena allocated %v times per read/write/read", threads, allocs)
		}
	}
}

// BenchmarkObserveRead is the miss-heavy hot-loop shape (every access a new
// address): one hash pass, one mask store and one writer load in one slot.
func BenchmarkObserveRead(b *testing.B) {
	s, _ := NewAsymmetric(Options{Slots: 1 << 20, Threads: 32})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ObserveRead(uint64(i)&0xffff*8, int32(i&31))
	}
}

func BenchmarkObserveReadHit(b *testing.B) {
	s, _ := NewAsymmetric(Options{Slots: 1 << 20, Threads: 32})
	s.ObserveWrite(0x1000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ObserveRead(0x1000, int32(i&31))
	}
}

func BenchmarkObserveWrite(b *testing.B) {
	s, _ := NewAsymmetric(Options{Slots: 1 << 20, Threads: 32})
	for i := 0; i < b.N; i++ {
		s.ObserveWrite(uint64(i)&0xffff*8, int32(i&31))
	}
}

// BenchmarkReaderSets prices the two reader-set layouts beyond one mask word:
// the arena at w = ⌈t/32⌉ against the paper's per-slot bloom filters at the
// same t, over a read-mostly stream on 2^16 addresses in 2^20 slots. Its
// spread case is the arena alone at t = 32 on bench/'s synth-spread shape:
// 2^22 random accesses over twice as many granules as slots, 20 % writes,
// so nearly every access lands on a slot no cache holds.
func BenchmarkReaderSets(b *testing.B) {
	b.Run("spread/t=32/mask", func(b *testing.B) {
		const slots, n = 1 << 20, 1 << 22
		rng := rand.New(rand.NewSource(1))
		addrs := make([]uint64, n)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(2*slots)) * 8
		}
		s, _ := NewAsymmetric(Options{Slots: slots, Threads: 32})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			addr, tid := addrs[i&(n-1)], int32(i&31)
			if i%5 == 0 {
				s.ObserveWrite(addr, tid)
			} else {
				s.ObserveRead(addr, tid)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
	})
	for _, threads := range []int{33, 128, 256} {
		for _, layout := range []string{"mask", "bloom"} {
			b.Run(fmt.Sprintf("t=%d/%s", threads, layout), func(b *testing.B) {
				opts := Options{Slots: 1 << 20, Threads: threads}
				var s Backend
				if layout == "bloom" {
					s, _ = NewBloom(opts, 0.001)
				} else {
					s, _ = NewAsymmetric(opts)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					addr, tid := uint64(i*7919)&0xffff*8, int32(i%threads)
					if i&7 == 0 {
						s.ObserveWrite(addr, tid)
					} else {
						s.ObserveRead(addr, tid)
					}
				}
			})
		}
	}
}

func BenchmarkPerfectObserveRead(b *testing.B) {
	p := NewPerfect(32)
	p.ObserveWrite(0x1000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ObserveRead(0x1000, int32(i&31))
	}
}

// TestReleasedArenaComesBackClean is the reuse wall: a stream over one
// arena, Release, then NewAsymmetric of the same size must hand back an
// all-zero arena with a clear bitmap, on which a second stream's verdicts
// equal a fresh arena's. Strides 6, 10 and 34 put some slots across two
// lines, and 7 and 1 000 slots end on a partial line; short streams leave
// most lines untouched, so a slot whose second line went unmarked shows.
func TestReleasedArenaComesBackClean(t *testing.T) {
	reused := 0
	for _, threads := range []int{32, 40, 256} {
		for _, slots := range []uint64{7, 1000, 4096} {
			for _, n := range []int{1, 3, 10, 40, 300, 5000} {
				opts := Options{Slots: slots, Threads: threads}
				rng := rand.New(rand.NewSource(int64(threads)*7919 + int64(slots)*31 + int64(n)))
				stream := func(f func(write bool, addr uint64, tid int32)) {
					for range n {
						f(rng.Intn(4) == 0, uint64(0x7000+8*rng.Intn(int(4*slots))), int32(rng.Intn(threads)))
					}
				}
				s, err := NewAsymmetric(opts)
				if err != nil {
					t.Fatal(err)
				}
				stream(func(write bool, addr uint64, tid int32) {
					if write {
						s.ObserveWrite(addr, tid)
					} else {
						s.ObserveRead(addr, tid)
					}
				})
				released := &s.arena[0]
				s.Release()
				if s.arena != nil {
					t.Fatal("Release left the signature its arena")
				}
				r, err := NewAsymmetric(opts)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := NewAsymmetric(opts)
				if err != nil {
					t.Fatal(err)
				}
				if &r.arena[0] != released {
					continue // the pool may drop what it holds (at a GC, or under -race)
				}
				reused++
				for i, b := range r.arena {
					if b != 0 {
						t.Fatalf("t=%d slots=%d n=%d: reacquired arena byte %d (line %d) is %#x", threads, slots, n, i, i/64, b)
					}
				}
				for i, w := range r.dirty {
					if w != 0 {
						t.Fatalf("t=%d slots=%d n=%d: reacquired bitmap word %d is %#x", threads, slots, n, i, w)
					}
				}
				stream(func(write bool, addr uint64, tid int32) {
					if write {
						r.ObserveWrite(addr, tid)
						fresh.ObserveWrite(addr, tid)
						return
					}
					gw, gf := r.ObserveRead(addr, tid)
					if fw, ff := fresh.ObserveRead(addr, tid); gw != fw || gf != ff {
						t.Fatalf("t=%d slots=%d n=%d: read(%#x, T%d) = (%d,%v) on the reused arena, (%d,%v) on a fresh one",
							threads, slots, n, addr, tid, gw, gf, fw, ff)
					}
				})
			}
		}
	}
	if reused == 0 {
		t.Fatal("no released arena came back from the pool")
	}
}

// TestReleasedArenaReturnsOnAnyGoroutine is the wall for the shelf: each
// round builds two signatures of one size, as two shards of a run do, each
// on a fresh goroutine, dirties them and releases each on another, with at
// least two Ps so that they may run on different ones. The next round must
// get the same two arenas back, all zero, whichever P it runs on. A
// sync.Pool loses a Put whenever its Get runs on another P, which the
// releasing round forces by keeping this goroutine's P busy (and at random
// under -race).
func TestReleasedArenaReturnsOnAnyGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	opts := Options{Slots: 1000, Threads: 40}
	var released map[*byte]bool
	for round := range 51 {
		ch := make(chan *Asymmetric)
		for range 2 {
			go func() {
				s, err := NewAsymmetric(opts)
				if err != nil {
					t.Error(err)
				}
				ch <- s
			}()
		}
		sigs := []*Asymmetric{<-ch, <-ch}
		got := map[*byte]bool{}
		for _, s := range sigs {
			if s == nil {
				t.FailNow()
			}
			got[&s.arena[0]] = true
			for i, b := range s.arena {
				if b != 0 {
					t.Fatalf("round %d: reacquired arena byte %d is %#x", round, i, b)
				}
			}
			for i := range uint64(200) {
				s.ObserveWrite(0x7000+8*i, int32(i%40))
				s.ObserveRead(0x7000+16*i, int32(i%39))
			}
		}
		if round > 0 && !maps.Equal(got, released) {
			t.Fatalf("round %d: NewAsymmetric made new arenas instead of taking the two released last round", round)
		}
		released = got
		// Spinning here, not parking, keeps this P busy, so another P
		// takes the releasing goroutines and releases on its side.
		var done atomic.Int32
		for _, s := range sigs {
			go func() {
				s.Release()
				done.Add(1)
			}()
		}
		for done.Load() < 2 {
		}
	}
}

// BenchmarkArenaSetUp prices a run's signature set-up and tear-down at the
// facade's default size (2^20 slots at t = 32): NewAsymmetric, k first
// touches that dirty 1 % or 100 % of the arena's 64-byte lines, and Release.
// From the second iteration on NewAsymmetric takes the arena the last one
// released and zeroes its dirty lines.
func BenchmarkArenaSetUp(b *testing.B) {
	opts := Options{Slots: 1 << 20, Threads: 32}
	s, err := NewAsymmetric(opts)
	if err != nil {
		b.Fatal(err)
	}
	// addrs holds one address for each line, in line order.
	lines := (uint64(len(s.arena)) + 63) / 64
	addrs := make([]uint64, lines)
	for addr, left := uint64(8), lines; left > 0; addr += 8 {
		if l := s.slot(addr) * s.stride / 64; addrs[l] == 0 {
			addrs[l] = addr
			left--
		}
	}
	s.Release()
	for _, c := range []struct {
		name  string
		every int
	}{{"dirty=1%", 100}, {"dirty=100%", 1}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, _ := NewAsymmetric(opts)
				for l := 0; l < len(addrs); l += c.every {
					s.ObserveWrite(addrs[l], 0)
				}
				s.Release()
			}
		})
	}
}
