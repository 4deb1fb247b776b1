package comm

import (
	"fmt"
	"sync"
)

// SparseMatrix is the map-backed communication matrix of the paper's §VII
// outlook ("use sparse matrices to reduce memory consumption even further").
// A dense n×n matrix costs n² cells regardless of traffic; most patterns
// (stencil halos, pipelines, reductions) touch O(n) pairs, so at high thread
// counts the sparse form wins by orders of magnitude. The trade-off is a
// mutex-guarded map instead of a flat array — slower per update.
type SparseMatrix struct {
	n  int
	mu sync.Mutex
	m  map[sparseKey]uint64
}

type sparseKey struct{ src, dst int32 }

// NewSparse returns an empty sparse n×n matrix.
func NewSparse(n int) *SparseMatrix {
	if n <= 0 {
		panic(fmt.Sprintf("comm: invalid matrix size %d", n))
	}
	return &SparseMatrix{n: n, m: map[sparseKey]uint64{}}
}

// Add records bytes of communication from src to dst.
func (s *SparseMatrix) Add(src, dst int32, bytes uint64) {
	if src < 0 || int(src) >= s.n || dst < 0 || int(dst) >= s.n {
		panic(fmt.Sprintf("comm: thread pair (%d,%d) out of range for %d threads", src, dst, s.n))
	}
	if bytes == 0 {
		return // no traffic is no cell: the map holds exactly the non-zero ones
	}
	s.mu.Lock()
	s.m[sparseKey{src, dst}] += bytes
	s.mu.Unlock()
}

// NonZeroCells counts cells with any traffic.
func (s *SparseMatrix) NonZeroCells() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// FromDense converts a dense matrix to sparse form.
func FromDense(m *Matrix) *SparseMatrix {
	out := NewSparse(m.N())
	for src := 0; src < m.N(); src++ {
		for dst := 0; dst < m.N(); dst++ {
			if v := m.At(src, dst); v > 0 {
				out.m[sparseKey{int32(src), int32(dst)}] = v
			}
		}
	}
	return out
}

// MemoryBytes estimates the heap held by the sparse representation: per-entry
// key+value plus Go map bucket overhead (~48 bytes/entry amortised).
func (s *SparseMatrix) MemoryBytes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return uint64(len(s.m)) * (8 + 8 + 48)
}

// DenseMemoryBytes is the dense equivalent's fixed cost for n threads:
// n² 8-byte cells.
func DenseMemoryBytes(n int) uint64 { return uint64(n) * uint64(n) * 8 }
