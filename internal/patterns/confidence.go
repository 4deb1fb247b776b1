package patterns

import (
	"math"

	"commprof/internal/comm"
)

// ConfidenceClassifier is an optional extension of Classifier for models that
// can attach a confidence to their prediction. KNN reports its vote fraction,
// NaiveBayes its softmax posterior; classifiers without a meaningful score
// (RuleBased) fall back to Predict with confidence 1.
type ConfidenceClassifier interface {
	Classifier
	// PredictWithConfidence returns the most likely class and a confidence in
	// (0, 1].
	PredictWithConfidence(f [FeatureDim]float64) (Class, float64)
}

// ClassifyMatrixWithConfidence extracts features and predicts with a
// confidence when the classifier supports one (1.0 otherwise).
func ClassifyMatrixWithConfidence(c Classifier, m *comm.Matrix) (Class, float64) {
	f := Features(m)
	if cc, ok := c.(ConfidenceClassifier); ok {
		return cc.PredictWithConfidence(f)
	}
	return c.Predict(f), 1
}

// PredictWithConfidence implements ConfidenceClassifier: the confidence is
// the winning class's share of the k votes (a model holds at least k points).
func (m *KNN) PredictWithConfidence(f [FeatureDim]float64) (Class, float64) {
	votes := m.vote(f)
	best, bestV := Class(0), -1
	for c, v := range votes {
		if v > bestV {
			best, bestV = Class(c), v
		}
	}
	return best, float64(bestV) / float64(m.k)
}

// PredictWithConfidence implements ConfidenceClassifier: the confidence is
// the softmax posterior of the winning class over the per-class
// log-likelihoods (computed stably via log-sum-exp).
func (m *NaiveBayes) PredictWithConfidence(f [FeatureDim]float64) (Class, float64) {
	var ll [NumClasses]float64
	best, bestLL := Class(0), math.Inf(-1)
	for c := 0; c < int(NumClasses); c++ {
		ll[c] = m.logLikelihood(Class(c), f)
		if ll[c] > bestLL {
			best, bestLL = Class(c), ll[c]
		}
	}
	var sum float64
	for c := 0; c < int(NumClasses); c++ {
		sum += math.Exp(ll[c] - bestLL)
	}
	return best, 1 / sum
}

// WindowClass is one classified time window of a streaming run.
type WindowClass struct {
	Start      uint64
	End        uint64
	Class      Class
	Confidence float64
	Bytes      uint64
}
