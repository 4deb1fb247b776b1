package patterns

import (
	"fmt"
	"math"

	"commprof/internal/comm"
)

// Classifier assigns a pattern class to a feature vector.
type Classifier interface {
	// Predict returns the most likely class for the feature vector.
	Predict(f [FeatureDim]float64) Class
}

// ClassifyMatrix is the convenience entry point: extract features and predict.
func ClassifyMatrix(c Classifier, m *comm.Matrix) Class {
	return c.Predict(Features(m))
}

// ---------------------------------------------------------------------------
// Rule-based classifier (the paper's "algorithmic methods").

// RuleBased classifies with hand-written decision rules over the same
// features the learners use. It needs no training and documents what each
// topology looks like quantitatively.
type RuleBased struct{}

// Predict implements Classifier.
func (RuleBased) Predict(f [FeatureDim]float64) Class {
	band1, ringF, ringB := f[0], f[3], f[4]
	row0, col0 := f[5], f[6]
	density, cellCV, rowCV := f[8], f[9], f[10]
	switch {
	case ringF > 0.75 && ringB < 0.15:
		// Strongly one-directional neighbour chain.
		return Pipeline
	case row0+col0 > 0.75:
		return MasterWorker
	case band1 > 0.45 && f[1] < 0.95 && density < 0.5:
		return StructuredGrid
	case density > 0.9 && cellCV < 0.08 && rowCV < 0.08:
		// Full, almost perfectly flat matrix: barrier flags.
		return Barrier
	case band1 > 0.35 && density > 0.5:
		// Heavy decaying band over a global background.
		return NBody
	case density > 0.85 && cellCV < 0.45:
		return Spectral
	default:
		return LinearAlgebra
	}
}

// ---------------------------------------------------------------------------
// k-nearest-neighbours.

// KNN is a k-nearest-neighbour classifier over standardized features.
type KNN struct {
	k      int
	mean   [FeatureDim]float64
	std    [FeatureDim]float64
	points [][FeatureDim]float64
	labels []Class
}

// NewKNN trains a kNN classifier (k must be odd and positive).
func NewKNN(k int, train []Sample) (*KNN, error) {
	if k <= 0 {
		return nil, fmt.Errorf("patterns: k must be positive, got %d", k)
	}
	if len(train) < k {
		return nil, fmt.Errorf("patterns: %d training samples for k=%d", len(train), k)
	}
	m := &KNN{k: k}
	m.mean, m.std = standardize(train)
	for _, s := range train {
		m.points = append(m.points, m.scale(s.Features))
		m.labels = append(m.labels, s.Class)
	}
	return m, nil
}

func (m *KNN) scale(f [FeatureDim]float64) [FeatureDim]float64 {
	var out [FeatureDim]float64
	for i := range f {
		out[i] = (f[i] - m.mean[i]) / m.std[i]
	}
	return out
}

// neighbour is one training point's squared distance to a query.
type neighbour struct {
	d     float64
	label Class
}

// vote tallies the k nearest neighbours' labels. It keeps the k nearest seen
// so far in an insertion-sorted array while it scans the training points, so
// a query costs n distances and no sort; equal distances go to the lower
// training index (a later point must be strictly nearer to displace one).
func (m *KNN) vote(f [FeatureDim]float64) [NumClasses]int {
	q := m.scale(f)
	var buf [8]neighbour
	near := buf[:0]
	if m.k > len(buf) {
		near = make([]neighbour, 0, m.k)
	}
	for i, p := range m.points {
		var sum float64
		for j := range p {
			diff := p[j] - q[j]
			sum += diff * diff
		}
		if len(near) < m.k {
			near = append(near, neighbour{})
		} else if !(sum < near[m.k-1].d) {
			continue
		}
		at := len(near) - 1
		for ; at > 0 && sum < near[at-1].d; at-- {
			near[at] = near[at-1]
		}
		near[at] = neighbour{sum, m.labels[i]}
	}
	var votes [NumClasses]int
	for _, n := range near {
		votes[n.label]++
	}
	return votes
}

// Predict implements Classifier.
func (m *KNN) Predict(f [FeatureDim]float64) Class {
	c, _ := m.PredictWithConfidence(f)
	return c
}

// ---------------------------------------------------------------------------
// Gaussian naive Bayes.

// NaiveBayes is a Gaussian naive Bayes classifier.
type NaiveBayes struct {
	mean  [NumClasses][FeatureDim]float64
	vari  [NumClasses][FeatureDim]float64
	prior [NumClasses]float64
}

// NewNaiveBayes trains a Gaussian NB model; every class must appear in the
// training set.
func NewNaiveBayes(train []Sample) (*NaiveBayes, error) {
	var count [NumClasses]int
	m := &NaiveBayes{}
	for _, s := range train {
		count[s.Class]++
		for j, v := range s.Features {
			m.mean[s.Class][j] += v
		}
	}
	for c := 0; c < int(NumClasses); c++ {
		if count[c] == 0 {
			return nil, fmt.Errorf("patterns: class %s missing from training set", Class(c))
		}
		for j := range m.mean[c] {
			m.mean[c][j] /= float64(count[c])
		}
		m.prior[c] = float64(count[c]) / float64(len(train))
	}
	for _, s := range train {
		for j, v := range s.Features {
			d := v - m.mean[s.Class][j]
			m.vari[s.Class][j] += d * d
		}
	}
	const varFloor = 1e-6
	for c := 0; c < int(NumClasses); c++ {
		for j := range m.vari[c] {
			m.vari[c][j] = m.vari[c][j]/float64(count[c]) + varFloor
		}
	}
	return m, nil
}

// logLikelihood is the unnormalized class log-posterior.
func (m *NaiveBayes) logLikelihood(c Class, f [FeatureDim]float64) float64 {
	ll := math.Log(m.prior[c])
	for j, v := range f {
		d := v - m.mean[c][j]
		ll += -0.5*math.Log(2*math.Pi*m.vari[c][j]) - d*d/(2*m.vari[c][j])
	}
	return ll
}

// Predict implements Classifier.
func (m *NaiveBayes) Predict(f [FeatureDim]float64) Class {
	c, _ := m.PredictWithConfidence(f)
	return c
}

// ---------------------------------------------------------------------------
// Evaluation harness.

// Evaluation is the result of testing a classifier on labelled samples.
type Evaluation struct {
	Accuracy  float64
	Confusion [NumClasses][NumClasses]int // [true][predicted]
	N         int
}

// Evaluate runs the classifier over the test set.
func Evaluate(c Classifier, test []Sample) Evaluation {
	var ev Evaluation
	correct := 0
	for _, s := range test {
		pred := c.Predict(s.Features)
		ev.Confusion[s.Class][pred]++
		if pred == s.Class {
			correct++
		}
	}
	ev.N = len(test)
	if ev.N > 0 {
		ev.Accuracy = float64(correct) / float64(ev.N)
	}
	return ev
}

func standardize(train []Sample) (mean, std [FeatureDim]float64) {
	for _, s := range train {
		for j, v := range s.Features {
			mean[j] += v
		}
	}
	n := float64(len(train))
	for j := range mean {
		mean[j] /= n
	}
	for _, s := range train {
		for j, v := range s.Features {
			d := v - mean[j]
			std[j] += d * d
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / n)
		if std[j] < 1e-9 {
			std[j] = 1
		}
	}
	return mean, std
}
