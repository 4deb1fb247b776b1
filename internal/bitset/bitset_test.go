package bitset

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// Test and SizeBytes read a set back for the tests below; the bloom filter
// itself only sets and clears bits.

// Test atomically reports whether bit i is set.
func (a *Atomic) Test(i uint64) bool {
	if i >= a.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, a.n))
	}
	return a.words[i>>6].Load()&(1<<(i&63)) != 0
}

// SizeBytes returns the heap footprint of the bit storage in bytes.
func (a *Atomic) SizeBytes() uint64 { return uint64(len(a.words)) * 8 }

// count is the number of set bits, read bit by bit.
func count(a *Atomic) uint64 {
	var c uint64
	for i := uint64(0); i < a.Len(); i++ {
		if a.Test(i) {
			c++
		}
	}
	return c
}

func TestSetBasic(t *testing.T) {
	s := NewAtomic(130) // crosses two word boundaries
	if s.Len() != 130 {
		t.Fatalf("Len = %d, want 130", s.Len())
	}
	for _, i := range []uint64{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Test(i) {
			t.Fatalf("bit %d set in fresh set", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if count(s) != 8 {
		t.Fatalf("Count = %d, want 8", count(s))
	}
	s.Reset()
	if count(s) != 0 {
		t.Fatalf("Reset left %d bits", count(s))
	}
}

func TestSetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	NewAtomic(10).Set(10)
}

func TestAtomicOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	NewAtomic(10).Test(10)
}

func TestSetMatchesMapModel(t *testing.T) {
	// Property: an Atomic set behaves exactly like a map[uint64]bool model
	// under a random operation sequence, Set's result included.
	f := func(ops []uint16, seed int64) bool {
		const n = 512
		s := NewAtomic(n)
		model := map[uint64]bool{}
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			i := uint64(op) % n
			switch rng.Intn(2) {
			case 0:
				if s.Set(i) != model[i] {
					return false
				}
				model[i] = true
			case 1:
				if s.Test(i) != model[i] {
					return false
				}
			}
		}
		return count(s) == uint64(len(model))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAtomicSetReturnsOld(t *testing.T) {
	a := NewAtomic(64)
	if a.Set(5) {
		t.Fatal("first Set reported bit already present")
	}
	if !a.Set(5) {
		t.Fatal("second Set did not report bit present")
	}
	if !a.Test(5) || a.Test(6) {
		t.Fatal("Test mismatch")
	}
}

func TestAtomicConcurrentSet(t *testing.T) {
	// Many goroutines setting overlapping ranges: every bit must end up set,
	// and for each bit exactly one setter must observe old=false.
	const bitsN = 4096
	const workers = 8
	a := NewAtomic(bitsN)
	firsts := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(0); i < bitsN; i++ {
				if !a.Set(i) {
					firsts[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	if count(a) != bitsN {
		t.Fatalf("Count = %d, want %d", count(a), bitsN)
	}
	total := 0
	for _, f := range firsts {
		total += f
	}
	if total != bitsN {
		t.Fatalf("exactly one first-setter per bit required: got %d for %d bits", total, bitsN)
	}
}

func TestSizeBytes(t *testing.T) {
	if got := NewAtomic(1).SizeBytes(); got != 8 {
		t.Errorf("1-bit set SizeBytes = %d, want 8", got)
	}
	if got := NewAtomic(64).SizeBytes(); got != 8 {
		t.Errorf("64-bit set SizeBytes = %d, want 8", got)
	}
	if got := NewAtomic(65).SizeBytes(); got != 16 {
		t.Errorf("65-bit set SizeBytes = %d, want 16", got)
	}
	if got := NewAtomic(1024).SizeBytes(); got != 128 {
		t.Errorf("atomic 1024-bit SizeBytes = %d, want 128", got)
	}
}

func BenchmarkAtomicSet(b *testing.B) {
	a := NewAtomic(1 << 16)
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(rand.Int63())
		for pb.Next() {
			a.Set(i % (1 << 16))
			i += 0x9e3779b9
		}
	})
}
