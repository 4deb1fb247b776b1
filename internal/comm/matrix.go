// Package comm provides the communication matrix — the n×n producer×consumer
// adjacency matrix of inter-thread data volume (§IV-D) — and the nested
// per-loop matrix tree whose parent matrices are the sums of their children
// (Figs. 6, 7).
package comm

import (
	"fmt"
	"slices"
	"strings"
)

// Matrix is an n×n thread communication matrix. Cell (src,dst) holds the
// number of bytes thread dst read that were last written by thread src.
// A Matrix is not safe for concurrent use: a detector's matrices have that
// detector as their one writer and no reader until its run is over, and the
// window layer touches its matrices under its own locks.
type Matrix struct {
	n     int
	cells []uint64 // row-major [src*n+dst]
}

// NewMatrix returns a zeroed n×n matrix. It panics on n <= 0.
func NewMatrix(n int) *Matrix {
	if n <= 0 {
		panic(fmt.Sprintf("comm: invalid matrix size %d", n))
	}
	return &Matrix{n: n, cells: make([]uint64, n*n)}
}

// N returns the matrix dimension (thread count).
func (m *Matrix) N() int { return m.n }

// Add records bytes of communication from producer src to consumer dst.
func (m *Matrix) Add(src, dst int32, bytes uint64) {
	*m.cell(src, dst) += bytes
}

func (m *Matrix) cell(src, dst int32) *uint64 {
	if src < 0 || int(src) >= m.n || dst < 0 || int(dst) >= m.n {
		panic(fmt.Sprintf("comm: thread pair (%d,%d) out of range for %d threads", src, dst, m.n))
	}
	return &m.cells[int(src)*m.n+int(dst)]
}

// At returns the bytes communicated from src to dst.
func (m *Matrix) At(src, dst int) uint64 {
	return m.cells[src*m.n+dst]
}

// Total returns the sum of all cells.
func (m *Matrix) Total() uint64 {
	var t uint64
	for _, v := range m.cells {
		t += v
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
	for i, v := range other.cells {
		m.cells[i] += v
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.n)
	copy(c.cells, m.cells)
	return c
}

// CopyFrom overwrites m's cells with other's. Dimensions must match.
func (m *Matrix) CopyFrom(other *Matrix) {
	if other.n != m.n {
		panic(fmt.Sprintf("comm: dimension mismatch %d vs %d", m.n, other.n))
	}
	copy(m.cells, other.cells)
}

// Equal reports whether both matrices have identical dimensions and cells.
func (m *Matrix) Equal(other *Matrix) bool {
	if other == nil || other.n != m.n {
		return false
	}
	return slices.Equal(m.cells, other.cells)
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
				m.cells[s*n+d] = v
			}
		}
	}
	return m, nil
}

// NonZeroCells counts cells with any traffic.
func (m *Matrix) NonZeroCells() int {
	c := 0
	for _, v := range m.cells {
		if v != 0 {
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
	for _, v := range m.cells {
		if v > max {
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
