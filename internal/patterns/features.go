// Package patterns classifies communication matrices into parallel-pattern
// classes (§VI): computational motifs (linear algebra, spectral, n-body,
// structured grid), architectural patterns (master/worker, pipeline) and
// synchronization patterns (barrier). It extracts size-independent structural
// features from normalized matrices and provides both an algorithmic
// rule-based classifier and two from-scratch supervised learners (kNN and
// Gaussian naive Bayes), reproducing the paper's ">97% accuracy" experiment
// and its observation that learning compensates signature false positives.
package patterns

import (
	"math"

	"commprof/internal/comm"
)

// Class is a parallel-pattern class.
type Class int

const (
	// LinearAlgebra is the blocked-panel broadcast structure of LU/Cholesky.
	LinearAlgebra Class = iota
	// Spectral is the all-to-all transpose structure of FFT.
	Spectral
	// NBody is the distance-decaying band of particle codes.
	NBody
	// StructuredGrid is the nearest-neighbour halo exchange of stencils.
	StructuredGrid
	// MasterWorker concentrates traffic on one coordinator thread.
	MasterWorker
	// Pipeline is the one-directional neighbour chain.
	Pipeline
	// Barrier is the flat, uniform all-to-all of synchronization flags.
	Barrier

	// NumClasses is the number of pattern classes.
	NumClasses
)

var classNames = [...]string{
	"linear-algebra", "spectral", "n-body", "structured-grid",
	"master-worker", "pipeline", "barrier",
}

// String returns the class name.
func (c Class) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return "unknown"
	}
	return classNames[c]
}

// FeatureDim is the length of the feature vector.
const FeatureDim = 16

// FeatureNames labels the entries of a feature vector, index-aligned.
var FeatureNames = [FeatureDim]string{
	"band1", "band2", "bandLog", "ringFwd", "ringBwd",
	"row0", "col0", "symmetry", "density", "cellCV",
	"rowCV", "maxRow", "maxCell", "meanDist", "pow2", "activeRows",
}

// Features extracts the size-independent structural feature vector of a
// communication matrix. An all-zero matrix yields the zero vector. It
// allocates nothing: the coefficients of variation over the non-zero cells and
// over the row sums take a second pass over the matrix, which visits the
// values in the first pass's order, so every sum rounds as a collect-then-
// reduce over the same values would.
func Features(m *comm.Matrix) [FeatureDim]float64 {
	n := m.N()
	var f [FeatureDim]float64
	var total, rowSum, maxRow float64
	var nonZero, active int
	var band1, band2, bandLog, ringF, ringB, row0, col0, pow2 float64
	var maxCell, meanDist float64

	logBand := int(math.Ceil(math.Log2(float64(n))))
	for s := 0; s < n; s++ {
		var row float64
		fwd, bwd := (s+1)%n, (s-1+n)%n
		for d := 0; d < n; d++ {
			// A zero cell adds +0 to non-negative sums: skipping it changes no bit.
			c := m.At(s, d)
			if s == d || c == 0 {
				continue
			}
			v := float64(c)
			total += v // also the non-zero cells' sum
			nonZero++
			row += v
			dist := s - d
			if dist < 0 {
				dist = -dist
			}
			if dist <= 1 {
				band1 += v
			}
			if dist <= 2 {
				band2 += v
			}
			if dist <= logBand {
				bandLog += v
			}
			if d == fwd {
				ringF += v
			}
			if d == bwd {
				ringB += v
			}
			if s == 0 {
				row0 += v
			}
			if d == 0 {
				col0 += v
			}
			if dist&(dist-1) == 0 { // power of two (dist>=1 here)
				pow2 += v
			}
			if v > maxCell {
				maxCell = v
			}
			meanDist += v * float64(dist)
		}
		rowSum += row
		maxRow = max(maxRow, row)
		if row > 0 {
			active++
		}
	}
	if total == 0 {
		return f
	}

	// Second pass: squared deviations from the cell and row means, and the
	// asymmetry sum|a-aT| over the upper triangle, each in first-pass order.
	cellMean, rowMean := total/float64(nonZero), rowSum/float64(n)
	var cellSS, rowSS, asym float64
	for s := 0; s < n; s++ {
		var row float64
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			c := m.At(s, d)
			if d > s {
				asym += math.Abs(float64(c) - float64(m.At(d, s)))
			}
			if c == 0 {
				continue
			}
			v := float64(c)
			row += v
			dev := v - cellMean
			cellSS += dev * dev
		}
		dev := row - rowMean
		rowSS += dev * dev
	}

	f[0] = band1 / total
	f[1] = band2 / total
	f[2] = bandLog / total
	f[3] = ringF / total
	f[4] = ringB / total
	f[5] = row0 / total
	f[6] = col0 / total
	// Symmetry: 1 - sum|a-aT| / (2*total).
	f[7] = 1 - asym/total
	f[8] = float64(nonZero) / float64(n*n-n)
	f[9] = cv(cellSS, cellMean, nonZero)
	f[10] = cv(rowSS, rowMean, n)
	f[11] = maxRow / total
	f[12] = maxCell / total
	f[13] = meanDist / total / float64(n)
	f[14] = pow2 / total
	f[15] = float64(active) / float64(n)
	return f
}

// cv is the coefficient of variation of count values with the given mean and
// sum of squared deviations from it (0 for no values or a zero mean).
func cv(ss, mean float64, count int) float64 {
	if count == 0 || mean == 0 {
		return 0
	}
	return math.Sqrt(ss/float64(count)) / mean
}

// Family is the paper's §VI top-level taxonomy: "three classes of parallel
// patterns could be identified: (1) Computational patterns (Motifs),
// (2) Architectural patterns and (3) Synchronization patterns."
type Family int

const (
	// Computational covers the Berkeley-motif-style classes.
	Computational Family = iota
	// Architectural covers program-structure patterns.
	Architectural
	// Synchronization covers barrier/lock traffic.
	Synchronization
)

// String returns the family name.
func (f Family) String() string {
	switch f {
	case Computational:
		return "computational"
	case Architectural:
		return "architectural"
	case Synchronization:
		return "synchronization"
	default:
		return "unknown"
	}
}

// FamilyOf maps a pattern class to its §VI family.
func FamilyOf(c Class) Family {
	switch c {
	case LinearAlgebra, Spectral, NBody, StructuredGrid:
		return Computational
	case MasterWorker, Pipeline:
		return Architectural
	case Barrier:
		return Synchronization
	default:
		return Computational
	}
}
