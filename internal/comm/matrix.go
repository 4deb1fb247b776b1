// Package comm provides the communication matrix — the n×n producer×consumer
// adjacency matrix of inter-thread data volume (§IV-D) — and the nested
// per-loop matrix tree whose parent matrices are the sums of their children
// (Figs. 6, 7).
package comm

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Matrix is an n×n thread communication matrix. Cell (src,dst) holds the
// number of bytes thread dst read that were last written by thread src.
// All mutators are safe for concurrent use (the analysis runs inside the
// target program's threads).
type Matrix struct {
	n     int
	cells []atomic.Uint64 // row-major [src*n+dst]
}

// NewMatrix returns a zeroed n×n matrix. It panics on n <= 0.
func NewMatrix(n int) *Matrix {
	if n <= 0 {
		panic(fmt.Sprintf("comm: invalid matrix size %d", n))
	}
	return &Matrix{n: n, cells: make([]atomic.Uint64, n*n)}
}

// N returns the matrix dimension (thread count).
func (m *Matrix) N() int { return m.n }

// Add records bytes of communication from producer src to consumer dst.
func (m *Matrix) Add(src, dst int32, bytes uint64) {
	if src < 0 || int(src) >= m.n || dst < 0 || int(dst) >= m.n {
		panic(fmt.Sprintf("comm: thread pair (%d,%d) out of range for %d threads", src, dst, m.n))
	}
	m.cells[int(src)*m.n+int(dst)].Add(bytes)
}

// At returns the bytes communicated from src to dst.
func (m *Matrix) At(src, dst int) uint64 {
	return m.cells[src*m.n+dst].Load()
}

// Total returns the sum of all cells.
func (m *Matrix) Total() uint64 {
	var t uint64
	for i := range m.cells {
		t += m.cells[i].Load()
	}
	return t
}

// RowSums returns, per producer thread, the total bytes it supplied.
func (m *Matrix) RowSums() []uint64 {
	out := make([]uint64, m.n)
	for s := 0; s < m.n; s++ {
		for d := 0; d < m.n; d++ {
			out[s] += m.At(s, d)
		}
	}
	return out
}

// AddMatrix accumulates other into m. Dimensions must match.
func (m *Matrix) AddMatrix(other *Matrix) {
	if other.n != m.n {
		panic(fmt.Sprintf("comm: dimension mismatch %d vs %d", m.n, other.n))
	}
	for i := range m.cells {
		if v := other.cells[i].Load(); v != 0 {
			m.cells[i].Add(v)
		}
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.n)
	for i := range m.cells {
		c.cells[i].Store(m.cells[i].Load())
	}
	return c
}

// Equal reports whether both matrices have identical dimensions and cells.
func (m *Matrix) Equal(other *Matrix) bool {
	if other == nil || other.n != m.n {
		return false
	}
	for i := range m.cells {
		if m.cells[i].Load() != other.cells[i].Load() {
			return false
		}
	}
	return true
}

// Rows returns a plain [][]uint64 snapshot (row = producer).
func (m *Matrix) Rows() [][]uint64 {
	out := make([][]uint64, m.n)
	for s := 0; s < m.n; s++ {
		row := make([]uint64, m.n)
		for d := 0; d < m.n; d++ {
			row[d] = m.At(s, d)
		}
		out[s] = row
	}
	return out
}

// FromRows builds a matrix from a square slice-of-slices; it errors on a
// ragged or empty input. Useful for tests and the pattern generators.
func FromRows(rows [][]uint64) (*Matrix, error) {
	n := len(rows)
	if n == 0 {
		return nil, fmt.Errorf("comm: empty matrix")
	}
	m := NewMatrix(n)
	for s, row := range rows {
		if len(row) != n {
			return nil, fmt.Errorf("comm: row %d has %d columns, want %d", s, len(row), n)
		}
		for d, v := range row {
			if v != 0 {
				m.cells[s*n+d].Store(v)
			}
		}
	}
	return m, nil
}

// NonZeroCells counts cells with any traffic.
func (m *Matrix) NonZeroCells() int {
	c := 0
	for i := range m.cells {
		if m.cells[i].Load() != 0 {
			c++
		}
	}
	return c
}

// Heatmap renders the matrix as an ASCII intensity map (rows = producers,
// columns = consumers), using the classic density ramp the paper's figures
// show as grayscale.
func (m *Matrix) Heatmap() string {
	ramp := []byte(" .:-=+*#%@")
	max := uint64(0)
	for i := range m.cells {
		if v := m.cells[i].Load(); v > max {
			max = v
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "     consumers 0..%d\n", m.n-1)
	for s := 0; s < m.n; s++ {
		fmt.Fprintf(&b, "P%-3d ", s)
		for d := 0; d < m.n; d++ {
			v := m.At(s, d)
			idx := 0
			if max > 0 && v > 0 {
				idx = 1 + int(uint64(len(ramp)-2)*v/max)
				if idx >= len(ramp) {
					idx = len(ramp) - 1
				}
			}
			b.WriteByte(ramp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the matrix as comma-separated rows.
func (m *Matrix) CSV() string {
	var b strings.Builder
	for s := 0; s < m.n; s++ {
		for d := 0; d < m.n; d++ {
			if d > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", m.At(s, d))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
