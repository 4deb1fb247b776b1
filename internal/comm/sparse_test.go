package comm

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// At, Total and Equal read a sparse matrix back for the tests below; the
// profiler itself only adds to one and prices it (NonZeroCells, MemoryBytes).

// At returns the bytes communicated from src to dst.
func (s *SparseMatrix) At(src, dst int) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[sparseKey{int32(src), int32(dst)}]
}

// Total returns the sum of all cells.
func (s *SparseMatrix) Total() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t uint64
	for _, v := range s.m {
		t += v
	}
	return t
}

// Equal reports whether the sparse matrix holds exactly the dense matrix's
// non-zero cells.
func (s *SparseMatrix) Equal(m *Matrix) bool {
	if m == nil || m.N() != s.n {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	count := 0
	for src := 0; src < s.n; src++ {
		for dst := 0; dst < s.n; dst++ {
			v := m.At(src, dst)
			sv := s.m[sparseKey{int32(src), int32(dst)}]
			if v != sv {
				return false
			}
			if sv > 0 {
				count++
			}
		}
	}
	return count == len(s.m)
}

func TestSparseBasics(t *testing.T) {
	s := NewSparse(8)
	s.Add(0, 1, 10)
	s.Add(0, 1, 5)
	s.Add(7, 3, 2)
	if s.At(0, 1) != 15 || s.At(7, 3) != 2 || s.At(1, 0) != 0 {
		t.Fatal("cells wrong")
	}
	if s.Total() != 17 || s.NonZeroCells() != 2 || s.n != 8 {
		t.Fatalf("aggregates wrong: total=%d nz=%d", s.Total(), s.NonZeroCells())
	}
}

func TestSparseBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSparse(2).Add(2, 0, 1)
}

func TestNewSparseInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSparse(0)
}

func TestSparseDenseRoundTrip(t *testing.T) {
	f := func(vals []uint16) bool {
		n := 8
		dense := NewMatrix(n)
		sparse := NewSparse(n)
		vals = append(vals, 0) // adding no bytes must not make a cell
		for i, v := range vals {
			src, dst := int32(i%n), int32((i/n)%n)
			dense.Add(src, dst, uint64(v))
			sparse.Add(src, dst, uint64(v))
		}
		return sparse.Equal(dense) && FromDense(dense).Equal(dense)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSparseEqualRejects(t *testing.T) {
	s := NewSparse(4)
	s.Add(0, 1, 5)
	other := NewMatrix(4)
	if s.Equal(other) {
		t.Fatal("unequal matrices reported equal")
	}
	if s.Equal(nil) || s.Equal(NewMatrix(3)) {
		t.Fatal("nil / size mismatch accepted")
	}
	other.Add(0, 1, 5)
	if !s.Equal(other) {
		t.Fatal("equal matrices rejected")
	}
}

func TestSparseMemoryWinsOnSparsePatterns(t *testing.T) {
	// §VII claim: at high thread counts with O(n)-pair patterns (here a
	// ring), sparse storage beats dense by a wide margin.
	const n = 1024
	s := NewSparse(n)
	for i := int32(0); i < n; i++ {
		s.Add(i, (i+1)%n, 64)
	}
	sparseBytes := s.MemoryBytes()
	denseBytes := DenseMemoryBytes(n)
	if sparseBytes*10 > denseBytes {
		t.Fatalf("sparse %d not at least 10x smaller than dense %d for a ring", sparseBytes, denseBytes)
	}
}

func TestSparseDenseCrossover(t *testing.T) {
	// On a fully dense pattern the sparse form costs MORE per cell (map
	// overhead) — the trade-off is real, not free.
	const n = 16
	s := NewSparse(n)
	for i := int32(0); i < n; i++ {
		for j := int32(0); j < n; j++ {
			if i != j {
				s.Add(i, j, 1)
			}
		}
	}
	if s.MemoryBytes() <= DenseMemoryBytes(n) {
		t.Fatalf("dense pattern: sparse %d should exceed dense %d", s.MemoryBytes(), DenseMemoryBytes(n))
	}
}

func TestSparseConcurrentAdd(t *testing.T) {
	s := NewSparse(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 1000; i++ {
				s.Add(int32(w), int32(rng.Intn(8)), 1)
			}
		}(w)
	}
	wg.Wait()
	if s.Total() != 8000 {
		t.Fatalf("Total = %d, lost updates", s.Total())
	}
}

func BenchmarkSparseAdd(b *testing.B) {
	s := NewSparse(32)
	for i := 0; i < b.N; i++ {
		s.Add(int32(i&31), int32((i>>5)&31), 8)
	}
}

func BenchmarkDenseVsSparseAdd(b *testing.B) {
	b.Run("dense", func(b *testing.B) {
		m := NewMatrix(32)
		for i := 0; i < b.N; i++ {
			m.Add(int32(i&31), int32((i>>5)&31), 8)
		}
	})
	b.Run("sparse", func(b *testing.B) {
		m := NewSparse(32)
		for i := 0; i < b.N; i++ {
			m.Add(int32(i&31), int32((i>>5)&31), 8)
		}
	})
}
